// Annotated lock primitives: the only mutex types allowed outside
// src/base/ (the raw-mutex rule in tools/lint_malt_api.py enforces this).
//
// Each type wraps the std primitive and carries Clang thread-safety
// capability annotations (src/base/thread_annotations.h), so lock discipline
// — which lock guards which field, which functions require a lock held — is
// compiler-checked under clang (-Werror=thread-safety, the MALT_THREAD_SAFETY
// cmake option) and zero-cost documentation under gcc.
//
// Scoped holders (MutexLock, ReaderMutexLock, ...) are the
// way to take a lock. The simulator engine takes none of these: its ranks are
// fibers on the one thread that calls Engine::Run() (src/sim/engine.h).

#ifndef SRC_BASE_MUTEX_H_
#define SRC_BASE_MUTEX_H_

#include <mutex>
#include <shared_mutex>

#include "src/base/thread_annotations.h"

namespace malt {

// Plain exclusive mutex.
class MALT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MALT_ACQUIRE() { mu_.lock(); }
  void unlock() MALT_RELEASE() { mu_.unlock(); }
  bool try_lock() MALT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Declares to the analysis that this mutex is held on entry. For code paths
  // where the hold is a runtime fact the analysis cannot see (a callback run
  // under the caller's lock). No runtime effect.
  void AssertHeld() const MALT_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

// Reader/writer mutex.
class MALT_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() MALT_ACQUIRE() { mu_.lock(); }
  void unlock() MALT_RELEASE() { mu_.unlock(); }
  void lock_shared() MALT_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() MALT_RELEASE_SHARED() { mu_.unlock_shared(); }
  void AssertHeld() const MALT_ASSERT_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

// Scoped exclusive holders. Concrete per lock type (not a template): the
// analysis resolves the capability through the constructor's parameter, and
// concrete classes keep the diagnostics readable.
class MALT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MALT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() MALT_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

class MALT_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) MALT_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterMutexLock() MALT_RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

class MALT_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) MALT_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  // Generic release: the analysis pairs a shared acquire with any release
  // kind in the destructor of a scoped capability.
  ~ReaderMutexLock() MALT_RELEASE_GENERIC() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace malt

#endif  // SRC_BASE_MUTEX_H_
