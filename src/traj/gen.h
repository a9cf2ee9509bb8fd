// A minimal lazily-evaluated generator built on C++20 coroutines, with
// splicing.
//
// Every trajectory of the paper is expressed as a Generator<Move>: pulling
// the next value performs exactly one edge traversal of the (astronomically
// long, in the worst case) route. Destroying the generator mid-route is the
// normal way a rendezvous ends — the adversary simply stops driving the
// agent once the meeting happened.
//
// Splicing. Inside a generator, `co_yield child` with `child` a
// Generator<T> rvalue hands every value of `child` straight to the
// consumer, then continues after the co_yield — the same sequence as
// `while (child.next()) co_yield child.value();` but at one resume per
// value however deep the nesting (C++23's `elements_of`, hand-rolled):
//  - The root (the generator the consumer pulls) tracks the innermost
//    active frame of its chain, the leaf; next() resumes the leaf directly
//    and every frame's yield writes the root's value.
//  - A finished child's final_suspend transfers back to its parent
//    (symmetric transfer), which becomes the leaf again.
//  - A child's exception is rethrown from the parent's co_yield, so it
//    unwinds frame by frame and surfaces from the root's next().
//  - The spliced child lives in the awaiter inside the parent's frame, so
//    destroying the root destroys the whole chain, innermost frame first.
// Only a generator that has not started can be spliced; splicing one that
// has throws (ASYNCRV_CHECK) from the parent's co_yield. Splicing an empty
// (moved-from) Generator yields nothing.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "util/check.h"

namespace asyncrv {

template <typename T>
class Generator {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

 private:
  /// Marks the frame as started when it first runs.
  struct StartAwaiter {
    promise_type* promise;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const noexcept { promise->started = true; }
  };

  /// A finished child hands control back to its parent; the root returns
  /// to the consumer's next().
  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) const noexcept {
      promise_type& p = h.promise();
      if (!p.parent) return std::noop_coroutine();
      p.root->leaf = p.parent;
      return p.parent;
    }
    void await_resume() const noexcept {}
  };

  /// `co_yield child`: owns the child for the splice's lifetime, makes it
  /// the leaf and starts it.
  class SpliceAwaiter {
   public:
    explicit SpliceAwaiter(Handle child) : child_(child) {}
    SpliceAwaiter(const SpliceAwaiter&) = delete;
    SpliceAwaiter& operator=(const SpliceAwaiter&) = delete;
    ~SpliceAwaiter() {
      if (child_) child_.destroy();
    }
    bool await_ready() const noexcept { return !child_; }
    Handle await_suspend(Handle parent) noexcept {
      promise_type& c = child_.promise();
      c.root = parent.promise().root;
      c.parent = parent;
      c.root->leaf = child_;
      return child_;
    }
    void await_resume() const {
      if (child_ && child_.promise().exception) {
        std::rethrow_exception(child_.promise().exception);
      }
    }

   private:
    Handle child_;
  };

 public:
  struct promise_type {
    T current{};                  ///< root only: the chain's last value
    promise_type* root = this;    ///< the promise the consumer pulls
    Handle leaf;                  ///< root only: innermost active frame
    Handle parent;                ///< spliced children only
    std::exception_ptr exception;
    bool started = false;

    Generator get_return_object() {
      leaf = Handle::from_promise(*this);
      return Generator{leaf};
    }
    auto initial_suspend() noexcept { return StartAwaiter{this}; }
    auto final_suspend() noexcept { return FinalAwaiter{}; }
    std::suspend_always yield_value(T v) {
      root->current = std::move(v);
      return {};
    }
    SpliceAwaiter yield_value(Generator&& child) {
      ASYNCRV_CHECK_MSG(!child.h_ || !child.h_.promise().started,
                        "splicing a generator that has already started");
      return SpliceAwaiter{std::exchange(child.h_, {})};
    }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Generator() = default;
  explicit Generator(Handle h) : h_(h) {}
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;
  Generator(Generator&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  Generator& operator=(Generator&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  ~Generator() { destroy(); }

  /// Advances to the next yielded value. Returns false when exhausted.
  bool next() {
    if (!h_ || h_.done()) return false;
    promise_type& root = h_.promise();
    root.leaf.resume();
    if (root.exception) std::rethrow_exception(root.exception);
    return !h_.done();
  }

  const T& value() const { return h_.promise().current; }

  bool valid() const { return static_cast<bool>(h_); }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  Handle h_{};
};

}  // namespace asyncrv
