#include "runner/registry.h"

#include <limits>
#include <stdexcept>

#include "graph/builders.h"
#include "runner/encoding.h"
#include "util/prng.h"

namespace asyncrv::runner {

namespace {

/// A digits-only numeric argument of `id` (a bare std::stoull would silently
/// wrap negatives: "-3" becomes 18446744073709551613 and then a
/// multi-gigabyte graph).
std::uint64_t numeric_arg(const std::string& s, const std::string& id) {
  const auto v = parse_u64(s);
  if (!v) {
    throw std::logic_error("bad numeric argument '" + s + "' in '" + id + "'");
  }
  return *v;
}

/// "<a>x<b>" -> {a, b}.
std::pair<std::uint64_t, std::uint64_t> parse_dims(const std::string& s,
                                                   const std::string& id) {
  const std::size_t x = s.find('x');
  if (x == std::string::npos) {
    throw std::logic_error("expected <w>x<h> argument in graph id '" + id + "'");
  }
  return {numeric_arg(s.substr(0, x), id), numeric_arg(s.substr(x + 1), id)};
}

/// Cap on node counts in graph ids: large enough for any realistic sweep,
/// small enough that a typo'd or overflowed size is rejected instead of
/// wrapping through the uint32 Node type or allocating gigabytes.
constexpr std::uint64_t kMaxNodes = 1'000'000;

Graph build_family(const std::string& id) {
  const auto parts = split(id, ':');
  const std::string& family = parts.front();
  const std::size_t nargs = parts.size() - 1;
  const auto arg = [&](std::size_t i) { return numeric_arg(parts[i + 1], id); };
  // A node-count (or node-count-like) argument: range-checked so the later
  // static_cast<Node> cannot truncate.
  const auto node_arg = [&](std::size_t i) {
    const std::uint64_t v = arg(i);
    if (v > kMaxNodes) {
      throw std::logic_error("size argument " + std::to_string(v) +
                             " exceeds the " + std::to_string(kMaxNodes) +
                             "-node cap in graph id '" + id + "'");
    }
    return static_cast<Node>(v);
  };
  const auto need = [&](std::size_t n) {
    if (nargs != n) {
      throw std::logic_error("graph family '" + family + "' takes " +
                             std::to_string(n) + " argument(s): '" + id + "'");
    }
  };
  // Two-dimensional families: each dimension and the product are capped.
  const auto node_dims = [&](const std::string& s) {
    const auto [w, h] = parse_dims(s, id);
    if (w > kMaxNodes || h > kMaxNodes || w * h > kMaxNodes) {
      throw std::logic_error("dimensions " + s + " exceed the " +
                             std::to_string(kMaxNodes) + "-node cap in '" +
                             id + "'");
    }
    return std::make_pair(static_cast<Node>(w), static_cast<Node>(h));
  };

  if (family == "edge") { need(0); return make_edge(); }
  if (family == "petersen") { need(0); return make_petersen(); }
  if (family == "ring") { need(1); return make_ring(node_arg(0)); }
  if (family == "path") { need(1); return make_path(node_arg(0)); }
  if (family == "complete") { need(1); return make_complete(node_arg(0)); }
  if (family == "star") { need(1); return make_star(node_arg(0)); }
  if (family == "ringchord") { need(1); return make_ring_with_chord(node_arg(0)); }
  // Exponent-argument families: the cap must bind the resulting node
  // count (2^d / 2^(depth+1)-1 in 64-bit), not the exponent itself —
  // node_arg on the exponent would pass "bintree:20" (2,097,151 nodes)
  // straight through the documented 1M-node cap.
  const auto exp_arg = [&](std::size_t i, const char* what) {
    const std::uint64_t v = arg(i);
    if (v >= 64 || (std::uint64_t{1} << (v + 1)) > kMaxNodes) {
      throw std::logic_error(std::string(what) + " node count exceeds the " +
                             std::to_string(kMaxNodes) + "-node cap in '" +
                             id + "'");
    }
    return static_cast<int>(v);
  };
  if (family == "hypercube") { need(1); return make_hypercube(exp_arg(0, "hypercube")); }
  if (family == "bintree") { need(1); return make_binary_tree(exp_arg(0, "bintree")); }
  if (family == "grid") {
    need(1);
    const auto [w, h] = node_dims(parts[1]);
    return make_grid(w, h);
  }
  if (family == "torus") {
    need(1);
    const auto [w, h] = node_dims(parts[1]);
    return make_torus(w, h);
  }
  if (family == "bipartite") {
    need(1);
    const auto [a, b] = node_dims(parts[1]);
    return make_complete_bipartite(a, b);
  }
  if (family == "tree") { need(2); return make_random_tree(node_arg(0), arg(1)); }
  if (family == "lollipop") { need(2); return make_lollipop(node_arg(0), node_arg(1)); }
  if (family == "barbell") { need(2); return make_barbell(node_arg(0), node_arg(1)); }
  if (family == "random") {
    need(3);
    return make_random_connected(node_arg(0), node_arg(1), arg(2));
  }
  throw std::logic_error("unknown graph family: " + id);
}

}  // namespace

namespace {

/// "rreg:<n>,<d>" with the id's "@<seed>" suffix as the *construction*
/// seed (the instance is already randomized by it; a port shuffle on top
/// would be redundant). Default seed 1 when the suffix is absent.
Graph build_rreg(const std::string& base, std::uint64_t seed,
                 const std::string& id) {
  const auto parts = split(base, ':');
  if (parts.size() != 2) {
    throw std::logic_error("graph family 'rreg' takes 1 argument: '" + id + "'");
  }
  const std::size_t comma = parts[1].find(',');
  if (comma == std::string::npos) {
    throw std::logic_error("expected rreg:<n>,<d> in graph id '" + id + "'");
  }
  const std::uint64_t n = numeric_arg(parts[1].substr(0, comma), id);
  const std::uint64_t d = numeric_arg(parts[1].substr(comma + 1), id);
  if (n > kMaxNodes) {
    throw std::logic_error("size argument " + std::to_string(n) +
                           " exceeds the " + std::to_string(kMaxNodes) +
                           "-node cap in graph id '" + id + "'");
  }
  if (n < 3 || d < 2 || d >= n || (n * d) % 2 != 0) {
    throw std::logic_error(
        "rreg needs 3 <= n, 2 <= d < n and n*d even: '" + id + "'");
  }
  return make_random_regular(static_cast<Node>(n), static_cast<int>(d), seed);
}

}  // namespace

Graph make_graph(const std::string& id) {
  const std::size_t at = id.find('@');
  const std::string base = at == std::string::npos ? id : id.substr(0, at);
  if (base.rfind("rreg:", 0) == 0) {
    return build_rreg(base, at == std::string::npos
                                ? 1
                                : numeric_arg(id.substr(at + 1), id),
                      id);
  }
  if (at == std::string::npos) return build_family(id);
  return build_family(base).shuffle_ports(numeric_arg(id.substr(at + 1), id));
}

std::vector<std::string> small_catalog_ids() {
  return {"edge",          "path:3",       "path:5",      "ring:3",
          "ring:4",        "ring:6",       "star:5",      "complete:4",
          "complete:5",    "grid:2x3",     "tree:6:11",   "tree:8:12",
          "lollipop:6:3",  "bipartite:2x3", "ringchord:6", "random:7:3:21",
          "petersen"};
}

std::vector<std::string> large_catalog_ids() {
  return {"grid:512x512", "torus:256x256", "rreg:100000,3@7"};
}

std::unique_ptr<Adversary> make_adversary(const std::string& name,
                                          std::uint64_t seed) {
  if (name == "fair") return make_fair_adversary();
  if (name == "random" || name == "random50") return make_random_adversary(seed, 500);
  if (name == "random85") return make_random_adversary(seed, 850);
  if (name == "stall" || name == "stall-a") return make_stall_adversary(0, 2000);
  if (name == "stall-b") return make_stall_adversary(1, 2000);
  if (name.rfind("stall:", 0) == 0) {
    const auto parts = split(name, ':');
    if (parts.size() != 3) {
      throw std::logic_error("expected stall:<agent>:<traversals>: " + name);
    }
    const std::uint64_t agent = numeric_arg(parts[1], name);
    if (agent > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      throw std::logic_error("stall agent index out of range: " + name);
    }
    // The index is range-checked against the actual agent count when the
    // adversary first runs (StallAdversary::next).
    return make_stall_adversary(static_cast<int>(agent),
                                numeric_arg(parts[2], name));
  }
  if (name == "burst") return make_burst_adversary(seed);
  if (name == "oscillating") return make_oscillating_adversary(seed);
  if (name == "avoider") return make_avoider_adversary(seed);
  if (name == "phase") return make_phase_adversary(seed);
  if (name == "skew") return make_skew_adversary(seed);
  throw std::logic_error("unknown adversary: " + name);
}

std::uint64_t battery_seed(const std::string& name, std::uint64_t base) {
  if (name == "random" || name == "random50") return base;
  if (name == "random85") return base + 1;
  if (name == "burst") return base + 2;
  if (name == "oscillating") return base + 3;
  if (name == "avoider") return base + 4;
  if (name == "phase") return base + 5;
  if (name == "skew") return base + 6;
  return base;  // fair / stall-* take no seed
}

PPoly make_ppoly(const std::string& profile) {
  if (profile == "tiny") return PPoly::tiny();
  if (profile == "compact") return PPoly::compact();
  if (profile == "standard") return PPoly::standard();
  throw std::logic_error("unknown PPoly profile: " + profile);
}

std::vector<ExperimentSpec> e9_battery() {
  std::vector<ExperimentSpec> specs;
  for (const std::string& g : small_catalog_ids()) {
    for (const std::string& adv : adversary_battery_names()) {
      RendezvousSpec rv;
      rv.graph = g;
      rv.adversary = adv;
      rv.labels = {9, 14};
      rv.budget = 40'000'000;
      // Reproduces the historical adversary_battery(0xE9) streams.
      rv.seed = battery_seed(adv, 0xE9);
      specs.push_back({.name = "", .scenario = std::move(rv)});
    }
  }
  return specs;
}

std::vector<ExperimentSpec> scale_grid(std::uint64_t cells,
                                       std::uint64_t budget,
                                       std::uint64_t seed) {
  std::vector<ExperimentSpec> specs;
  specs.reserve(cells);
  for (std::uint64_t i = 0; i < cells; ++i) {
    RendezvousSpec rv;
    rv.graph = "ring:8";
    rv.adversary = "random";
    rv.labels = {5, 12};
    rv.budget = budget;
    // Same per-cell derivation rendezvous_grid uses, indexed by position so
    // the family is prefix-stable.
    rv.seed = splitmix64(seed ^ (i + 1));
    specs.push_back({.name = "", .scenario = std::move(rv)});
  }
  return specs;
}

}  // namespace asyncrv::runner
