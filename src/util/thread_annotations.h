#pragma once

/// \file
/// Clang thread-safety capability annotations + annotated synchronization
/// wrappers for every shared-state path in the repo.
///
/// The locking and ownership contracts that keep the parallel paths
/// (ThreadPool, offline build, async refresh, sweeps) race-free used to
/// live only in comments. This header turns them into compiler-checked
/// facts: under Clang with `-Wthread-safety` (the `ANOT_THREAD_SAFETY`
/// CMake option builds with `-Werror=thread-safety`), reading a
/// `ANOT_GUARDED_BY(mu_)` member without holding `mu_`, calling a
/// `ANOT_REQUIRES(mu_)` function unlocked, or leaking a lock out of a
/// scope is a compile error. Under GCC (which has no capability
/// analysis) every macro expands to nothing and the wrappers compile to
/// exactly the std primitives they hold — zero overhead either way.
///
/// Raw `std::mutex` / `std::lock_guard` / `std::condition_variable` are
/// banned outside this header (enforced by tools/concurrency_lint.py):
/// the analysis can only check capabilities it can see, so every lock in
/// `src/` must be an `anot::Mutex` acquired through `anot::MutexLock`.
///
/// Macro set (modeled on the Clang documentation's mutex.h and Abseil's
/// thread_annotations.h — same attribute spellings, ANOT_ prefix):
///
///   ANOT_CAPABILITY(name)      class is a capability (a lock)
///   ANOT_SCOPED_CAPABILITY     RAII class acquiring in ctor / dtor
///   ANOT_GUARDED_BY(mu)        data member readable/writable only with mu
///   ANOT_PT_GUARDED_BY(mu)     pointee (not the pointer) guarded by mu
///   ANOT_REQUIRES(...)         function must be called with locks held
///   ANOT_REQUIRES_SHARED(...)  ... in shared (reader) mode
///   ANOT_ACQUIRE(...)          function acquires the locks, caller frees
///   ANOT_RELEASE(...)          function releases the locks
///   ANOT_TRY_ACQUIRE(b, ...)   acquires iff the return value equals b
///   ANOT_EXCLUDES(...)         caller must NOT hold the locks (deadlock)
///   ANOT_ASSERT_CAPABILITY(x)  runtime assertion that x is held
///   ANOT_RETURN_CAPABILITY(x)  function returns a reference to x
///   ANOT_NO_THREAD_SAFETY_ANALYSIS  opt a function body out (last resort;
///                              every use needs a comment saying why the
///                              analysis cannot express the invariant)

#include <condition_variable>
#include <mutex>

#include "util/lifetime.h"

#if defined(__clang__) && (!defined(SWIG))
#define ANOT_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define ANOT_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op outside Clang
#endif

#define ANOT_CAPABILITY(x) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(capability(x))
#define ANOT_SCOPED_CAPABILITY \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)
#define ANOT_GUARDED_BY(x) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))
#define ANOT_PT_GUARDED_BY(x) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))
#define ANOT_REQUIRES(...) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define ANOT_REQUIRES_SHARED(...) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define ANOT_ACQUIRE(...) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ANOT_RELEASE(...) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define ANOT_TRY_ACQUIRE(...) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define ANOT_EXCLUDES(...) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ANOT_ASSERT_CAPABILITY(x) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))
#define ANOT_RETURN_CAPABILITY(x) \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))
#define ANOT_NO_THREAD_SAFETY_ANALYSIS \
  ANOT_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace anot {

class CondVar;

/// \brief Annotated exclusive mutex over std::mutex.
///
/// Prefer acquiring through MutexLock; the raw Lock/Unlock pair exists
/// for the rare non-scoped protocol and stays capability-checked.
class ANOT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ANOT_ACQUIRE() { raw_.lock(); }
  void Unlock() ANOT_RELEASE() { raw_.unlock(); }
  bool TryLock() ANOT_TRY_ACQUIRE(true) { return raw_.try_lock(); }

  /// Negative-capability form for ANOT_EXCLUDES-style assertions.
  const Mutex& operator!() const ANOT_LIFETIME_BOUND { return *this; }

 private:
  friend class CondVar;  // waits on the underlying std::mutex
  std::mutex raw_;
};

/// \brief RAII lock over Mutex; the scope of the object is the extent of
/// the critical section, and the analysis checks it cannot leak.
class ANOT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ANOT_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() ANOT_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  // anot-own: the caller's Mutex outlives the lock — a MutexLock is a
  // scoped local whose extent is the critical section it guards.
  Mutex& mu_;
};

/// \brief Condition variable bound to an anot::Mutex at each wait.
///
/// Wait() takes the Mutex explicitly and is annotated ANOT_REQUIRES(mu),
/// so waiting without the lock is a compile error. There is deliberately
/// no predicate overload: a lambda predicate runs outside the analysis's
/// view of the critical section, whereas the idiomatic
///
///     MutexLock lock(mu_);
///     while (!condition) cv_.Wait(mu_);
///
/// keeps every read of guarded state inside the checked scope.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before
  /// returning (spurious wakeups possible — always wait in a loop).
  void Wait(Mutex& mu) ANOT_REQUIRES(mu) {
    // Adopt the already-held lock for the wait protocol, then release
    // ownership back to the caller's MutexLock so it is unlocked exactly
    // once. The capability never changes hands as far as callers see.
    std::unique_lock<std::mutex> reacquire(mu.raw_, std::adopt_lock);
    raw_.wait(reacquire);
    reacquire.release();
  }

  void NotifyOne() { raw_.notify_one(); }
  void NotifyAll() { raw_.notify_all(); }

 private:
  std::condition_variable raw_;
};

}  // namespace anot
