// Splicing in Generator<T> (traj/gen.h): `co_yield child` inside a
// generator hands the child's values straight to the consumer. The
// sequence must equal the manual forwarding loop's over arbitrary nesting;
// a child's exception must surface from the root's next(); destroying the
// root mid-splice must destroy every frame of the chain exactly once,
// innermost first; and only a generator that has not started splices.
#include "traj/gen.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/prng.h"

namespace asyncrv {
namespace {

std::vector<int> drain(Generator<int> g) {
  std::vector<int> out;
  while (g.next()) out.push_back(g.value());
  return out;
}

/// A nesting tree: each item yields its value or splices a child subtree.
struct Tree {
  struct Item {
    int value = 0;
    int child = -1;  ///< >= 0: splice children[child] instead
  };
  std::vector<Item> items;
  std::vector<Tree> children;
};

constexpr int kMaxDepth = 10;  ///< frames in the deepest chain, root included

/// Shape statistics over the generated trees, so the test can check that
/// the seeds really exercise what it claims.
struct Shape {
  int max_depth = 0;
  int empty_children = 0;
  int back_to_back = 0;
};

Tree random_tree(Rng& rng, int depth, int& next_value, Shape& shape) {
  Tree t;
  if (depth > shape.max_depth) shape.max_depth = depth;
  const int items = static_cast<int>(rng.below(5));  // 0..4; 0 is empty
  if (items == 0 && depth > 1) ++shape.empty_children;
  bool last_spliced = false;
  for (int i = 0; i < items; ++i) {
    // Deep chains need a high splice rate; the depth cap bounds the size.
    if (depth < kMaxDepth && rng.below(8) < 5) {
      if (last_spliced) ++shape.back_to_back;
      last_spliced = true;
      t.items.push_back({0, static_cast<int>(t.children.size())});
      t.children.push_back(random_tree(rng, depth + 1, next_value, shape));
    } else {
      last_spliced = false;
      t.items.push_back({next_value++, -1});
    }
  }
  return t;
}

void flatten(const Tree& t, std::vector<int>* out) {
  for (const Tree::Item& it : t.items) {
    if (it.child >= 0) {
      flatten(t.children[it.child], out);
    } else {
      out->push_back(it.value);
    }
  }
}

Generator<int> spliced(const Tree& t) {
  for (const Tree::Item& it : t.items) {
    if (it.child >= 0) {
      co_yield spliced(t.children[it.child]);
    } else {
      co_yield it.value;
    }
  }
}

/// The reference: every level re-yields its child's values.
Generator<int> forwarded(const Tree& t) {
  for (const Tree::Item& it : t.items) {
    if (it.child >= 0) {
      auto child = forwarded(t.children[it.child]);
      while (child.next()) co_yield child.value();
    } else {
      co_yield it.value;
    }
  }
}

TEST(Gen, SplicedMatchesForwardingOverRandomTrees) {
  Shape shape;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    int next_value = 0;
    const Tree t = random_tree(rng, 1, next_value, shape);
    std::vector<int> want;
    flatten(t, &want);
    ASSERT_EQ(drain(forwarded(t)), want) << "seed " << seed;
    ASSERT_EQ(drain(spliced(t)), want) << "seed " << seed;
  }
  EXPECT_EQ(shape.max_depth, kMaxDepth);
  EXPECT_GT(shape.empty_children, 0);
  EXPECT_GT(shape.back_to_back, 0);
}

TEST(Gen, SpliceOfEmptyGeneratorsYieldsNothing) {
  auto g = []() -> Generator<int> {
    co_yield 1;
    co_yield Generator<int>{};  // moved-from / default: no frame
    co_yield []() -> Generator<int> { co_return; }();
    co_yield 2;
  }();
  EXPECT_EQ(drain(std::move(g)), (std::vector<int>{1, 2}));
}

Generator<int> thrower(int depth) {
  co_yield depth * 10;
  if (depth == 4) throw std::runtime_error("thrown at depth 4");
  co_yield thrower(depth + 1);
  co_yield depth * 10 + 1;  // never reached: the child's throw unwinds us
}

TEST(Gen, ChildExceptionSurfacesFromRootNext) {
  auto root = thrower(1);
  for (const int want : {10, 20, 30, 40}) {
    ASSERT_TRUE(root.next());
    EXPECT_EQ(root.value(), want);
  }
  try {
    root.next();
    FAIL() << "next() did not rethrow the depth-4 exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "thrown at depth 4");
  }
  EXPECT_FALSE(root.next());
  EXPECT_FALSE(root.next());
}

/// Counts its destruction and records which frame it belonged to.
struct Counted {
  int depth;
  std::vector<int>* destroyed;
  ~Counted() { destroyed->push_back(depth); }
};

Generator<int> nest(int depth, int max_depth, std::vector<int>* destroyed) {
  Counted local{depth, destroyed};
  co_yield depth;
  if (depth < max_depth) co_yield nest(depth + 1, max_depth, destroyed);
  co_yield -depth;
}

TEST(Gen, DestroyingRootMidSpliceDestroysEveryFrameOnce) {
  std::vector<int> destroyed;
  {
    auto root = nest(1, 5, &destroyed);
    for (int want = 1; want <= 5; ++want) {
      ASSERT_TRUE(root.next());
      ASSERT_EQ(root.value(), want);  // suspended at depth `want`
    }
    EXPECT_TRUE(destroyed.empty());
  }
  // Every frame's local exactly once, the innermost frame first.
  EXPECT_EQ(destroyed, (std::vector<int>{5, 4, 3, 2, 1}));
}

TEST(Gen, FinishedChildrenAreDestroyedAsTheSpliceEnds) {
  std::vector<int> destroyed;
  auto root = nest(1, 5, &destroyed);
  std::vector<int> got;
  while (root.next()) {
    got.push_back(root.value());
    if (root.value() == -4) {
      // Depth 5 finished and was destroyed before depth 4 yielded -4.
      EXPECT_EQ(destroyed, (std::vector<int>{5}));
    }
  }
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4, 5, -5, -4, -3, -2, -1}));
  EXPECT_EQ(destroyed, (std::vector<int>{5, 4, 3, 2, 1}));
}

Generator<int> count_to(int n) {
  for (int i = 1; i <= n; ++i) co_yield i;
}

TEST(Gen, SplicingAStartedGeneratorThrows) {
  auto root = []() -> Generator<int> {
    auto started = count_to(3);
    started.next();
    co_yield 0;
    co_yield std::move(started);
  }();
  ASSERT_TRUE(root.next());
  EXPECT_EQ(root.value(), 0);
  EXPECT_THROW(root.next(), std::logic_error);
  EXPECT_FALSE(root.next());
}

TEST(Gen, NestedRootsPulledInsideASpliceStayIndependent) {
  // A frame may pull a generator by hand (as repeat_base records its first
  // repetition) while itself spliced: the hand-pulled chain is a root of
  // its own and writes its own value.
  auto root = []() -> Generator<int> {
    co_yield []() -> Generator<int> {
      auto inner = []() -> Generator<int> {
        co_yield count_to(2);
        co_yield 7;
      }();
      while (inner.next()) co_yield inner.value() * 100;
    }();
    co_yield 9;
  }();
  EXPECT_EQ(drain(std::move(root)), (std::vector<int>{100, 200, 700, 9}));
}

}  // namespace
}  // namespace asyncrv
