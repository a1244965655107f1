// Clang thread-safety ("capability") analysis macros (DESIGN.md §9, "Static
// lock discipline").
//
// These wrap the __attribute__((...)) spellings understood by Clang's
// -Wthread-safety analysis, so "which lock guards this field" and "this
// function requires the stripe held" become compiler-checked facts instead of
// comments. Under any other compiler (gcc builds the tier-1 tree) every macro
// expands to nothing; the annotations are zero-cost documentation there and
// the clang CI job / check.sh stage enforces them.
//
// Usage conventions (see src/base/mutex.h for the annotated lock types):
//   - Fields:     int x_ MALT_GUARDED_BY(mu_);
//   - Pointees:   Node* head_ MALT_PT_GUARDED_BY(mu_);
//   - Functions:  void FooLocked() MALT_REQUIRES(mu_);
//                 void ReadSide() const MALT_REQUIRES_SHARED(mu_);
//   - Striped locks: the capability expression may be a function call that
//     returns the mutex, e.g. MALT_REQUIRES(StripeFor(node, rkey, queue));
//     the call-site arguments must match the lock-site expression textually.
//   - Escapes:    annotate deliberate holes MALT_NO_THREAD_SAFETY_ANALYSIS
//                 with a comment saying why (e.g. post-run accessors the
//                 analysis cannot prove quiescent).

#ifndef SRC_BASE_THREAD_ANNOTATIONS_H_
#define SRC_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define MALT_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define MALT_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

// Type annotations: a class that is a lock (capability) / a scoped RAII
// holder of one.
#define MALT_CAPABILITY(x) MALT_THREAD_ANNOTATION_(capability(x))
#define MALT_SCOPED_CAPABILITY MALT_THREAD_ANNOTATION_(scoped_lockable)

// Data annotations.
#define MALT_GUARDED_BY(x) MALT_THREAD_ANNOTATION_(guarded_by(x))
#define MALT_PT_GUARDED_BY(x) MALT_THREAD_ANNOTATION_(pt_guarded_by(x))
#define MALT_ACQUIRED_BEFORE(...) MALT_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define MALT_ACQUIRED_AFTER(...) MALT_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

// Function annotations: preconditions on held capabilities.
#define MALT_REQUIRES(...) MALT_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define MALT_REQUIRES_SHARED(...) \
  MALT_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define MALT_EXCLUDES(...) MALT_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

// Function annotations: capability state transitions.
#define MALT_ACQUIRE(...) MALT_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define MALT_ACQUIRE_SHARED(...) MALT_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define MALT_RELEASE(...) MALT_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define MALT_RELEASE_SHARED(...) MALT_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define MALT_RELEASE_GENERIC(...) MALT_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define MALT_TRY_ACQUIRE(...) MALT_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

// Assertion: tells the analysis the capability IS held here (runtime fact the
// analysis cannot derive, e.g. a callback invoked under the caller's lock).
#define MALT_ASSERT_CAPABILITY(x) MALT_THREAD_ANNOTATION_(assert_capability(x))

// A function that returns a reference to the named capability.
#define MALT_RETURN_CAPABILITY(x) MALT_THREAD_ANNOTATION_(lock_returned(x))

// Deliberate hole: function body is not analyzed. Every use carries a
// comment explaining why the analysis cannot express the protocol.
#define MALT_NO_THREAD_SAFETY_ANALYSIS MALT_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // SRC_BASE_THREAD_ANNOTATIONS_H_
