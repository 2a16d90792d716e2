// Precondition / invariant checking.
//
// Library entry points validate arguments with PREGEL_CHECK (always on,
// throws std::invalid_argument / std::logic_error so callers can test error
// paths), while hot inner loops use PREGEL_DCHECK (assert-style, compiled out
// in release). These are the only macros in the codebase; they exist because
// a check needs the failing expression's text and location.
#pragma once

// Results are bit-identical only under IEEE binary64 arithmetic evaluated as
// written (docs/MODEL.md "Determinism"); -ffast-math reorders and contracts it.
#ifdef __FAST_MATH__
#error "pregel++ must not be built with -ffast-math: it breaks bit-identical results"
#endif

#include <sstream>
#include <stdexcept>
#include <string>

namespace pregel::detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file, int line,
                                      const std::string& msg) {
  std::ostringstream os;
  os << "PREGEL_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}

}  // namespace pregel::detail

#define PREGEL_CHECK(cond)                                                   \
  do {                                                                       \
    if (!(cond)) ::pregel::detail::check_failed(#cond, __FILE__, __LINE__, ""); \
  } while (false)

#define PREGEL_CHECK_MSG(cond, msg)                                          \
  do {                                                                       \
    if (!(cond)) ::pregel::detail::check_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (false)

#ifdef NDEBUG
#define PREGEL_DCHECK(cond) ((void)0)
#else
#define PREGEL_DCHECK(cond) PREGEL_CHECK(cond)
#endif
