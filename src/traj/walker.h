// Walker: the agent-side view of the graph.
//
// An agent only ever learns the degree of its current node and the port by
// which it entered; Walker exposes exactly that and performs moves. Trails
// record the entry ports of moves so that a trajectory can later be
// backtracked (the reverse trajectory T̄ of the paper): to undo a move that
// entered a node by port p, leave by port p.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"

namespace asyncrv {

/// One edge traversal, as yielded by every trajectory generator.
struct Move {
  Node from = 0;
  Node to = 0;
  Port port_out = -1;  ///< port taken at `from`
  Port port_in = -1;   ///< port of the same edge at `to`
};

/// Recording of entry ports, sufficient to replay a path backwards.
struct Trail {
  std::vector<std::uint16_t> entry_ports;

  std::size_t size() const { return entry_ports.size(); }
  bool empty() const { return entry_ports.empty(); }
  /// Pre-sizes the recording so the first traversals of a freshly
  /// registered trail do not reallocate move-by-move.
  void reserve(std::size_t n) { entry_ports.reserve(n); }
};

class Walker {
 public:
  Walker(const Graph& g, Node start) : g_(&g), cur_(start) {
    ASYNCRV_CHECK(start < g.size());
  }

  const Graph& graph() const { return *g_; }
  Node node() const { return cur_; }
  int degree() const { return g_->degree(cur_); }
  std::uint64_t total_moves() const { return moves_; }

  /// Traverses the edge with the given local port; appends the entry port
  /// to every registered trail.
  Move take(Port p) {
    const Graph::Half h = g_->step(cur_, p);
    Move m{cur_, h.to, p, h.port_at_to};
    cur_ = h.to;
    ++moves_;
    // Runs once per edge traversal of every route; the graph guarantees
    // the entry-port range, so the narrowing check is debug-only.
    ASYNCRV_DCHECK(m.port_in >= 0 && m.port_in < 65536);
    for (Trail* t : trails_) t->entry_ports.push_back(static_cast<std::uint16_t>(m.port_in));
    return m;
  }

  void register_trail(Trail* t) { trails_.push_back(t); }

  void unregister_trail(Trail* t) {
    for (auto it = trails_.begin(); it != trails_.end(); ++it) {
      if (*it == t) {
        trails_.erase(it);
        return;
      }
    }
    ASYNCRV_CHECK_MSG(false, "unregistering a trail that is not registered");
  }

 private:
  const Graph* g_;
  Node cur_;
  std::vector<Trail*> trails_;
  std::uint64_t moves_ = 0;
};

/// RAII registration of a trail on a walker. Safe against abrupt coroutine
/// destruction: the destructor always unregisters. Registration reserves a
/// first chunk of the recording so short backtrack segments never grow
/// their trail one move at a time.
class TrailScope {
 public:
  static constexpr std::size_t kInitialReserve = 64;

  TrailScope(Walker& w, Trail& t) : w_(&w), t_(&t) {
    t_->reserve(kInitialReserve);
    w_->register_trail(t_);
  }
  TrailScope(const TrailScope&) = delete;
  TrailScope& operator=(const TrailScope&) = delete;
  ~TrailScope() { w_->unregister_trail(t_); }

 private:
  Walker* w_;
  Trail* t_;
};

}  // namespace asyncrv
