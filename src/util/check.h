#pragma once

/// \file check.h
/// Checked invariants: `SPR_CHECK` / `SPR_DCHECK` with formatted context and
/// a test-friendly failure hook.
///
///   SPR_CHECK(offsets.size() == n + 1, "n=", n, " offsets=", offsets.size());
///   SPR_DCHECK(fifo_count_ < fifo_cap_, "ring overflow at key ", k);
///
/// `SPR_CHECK` is always on: API-boundary preconditions cheap enough for
/// Release (size agreements, handle validity). `SPR_DCHECK` compiles to a
/// no-op unless `SPR_DCHECK_ENABLED` is defined — the build system defines
/// it for Debug and sanitizer (`SPR_SANITIZE`) builds — and is for the hot
/// invariants the kernels otherwise trust silently (ring occupancy, pend-bit
/// consistency). Sweep-scale scans that only exist
/// to *verify* an invariant should additionally guard on
/// `spr::kDchecksEnabled` so Release builds drop the whole loop.
///
/// On failure the message is formatted as
/// `file:line: SPR_CHECK(expr) failed: <context>` and handed to the failure
/// handler. The default handler writes to stderr and aborts; tests install a
/// throwing handler (`ScopedCheckHandler` + `throwing_check_handler`) to
/// assert that a violated invariant is caught without killing the process.

#include <sstream>
#include <stdexcept>
#include <string>

namespace spr {

/// Compile-time view of whether SPR_DCHECK expands to a real check. Use to
/// guard verification-only loops: `if (kDchecksEnabled) { ... }` dead-code
/// eliminates in Release.
#ifdef SPR_DCHECK_ENABLED
inline constexpr bool kDchecksEnabled = true;
#else
inline constexpr bool kDchecksEnabled = false;
#endif

/// Thrown by `throwing_check_handler` (never by the default handler).
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Receives the fully formatted failure message. Returning is allowed (the
/// caller aborts afterwards); throwing propagates to the check site.
using CheckHandler = void (*)(const std::string& message);

/// Installs `handler` (nullptr restores the abort default) and returns the
/// previous one. Not thread-safe against concurrent failures by design —
/// only tests swap handlers, and they do it single-threaded.
CheckHandler set_check_handler(CheckHandler handler) noexcept;

/// A handler that throws `CheckError` with the message; for negative tests.
void throwing_check_handler(const std::string& message);

/// RAII installer so a test cannot leak a throwing handler into later tests.
class ScopedCheckHandler {
 public:
  explicit ScopedCheckHandler(CheckHandler handler) noexcept
      : previous_(set_check_handler(handler)) {}
  ~ScopedCheckHandler() { set_check_handler(previous_); }
  ScopedCheckHandler(const ScopedCheckHandler&) = delete;
  ScopedCheckHandler& operator=(const ScopedCheckHandler&) = delete;

 private:
  CheckHandler previous_;
};

/// Formats and dispatches one failure; aborts if the handler returns.
[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const std::string& context);

namespace detail {

inline std::string check_context() { return {}; }

template <typename... Args>
std::string check_context(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

}  // namespace detail
}  // namespace spr

#define SPR_CHECK(cond, ...)                                    \
  do {                                                          \
    if (!(cond)) {                                              \
      ::spr::check_failed(__FILE__, __LINE__, #cond,            \
                          ::spr::detail::check_context(__VA_ARGS__)); \
    }                                                           \
  } while (false)

#ifdef SPR_DCHECK_ENABLED
#define SPR_DCHECK(cond, ...) SPR_CHECK(cond, ##__VA_ARGS__)
#else
// Odr-uses nothing and evaluates nothing, but keeps the operands
// type-checked so a Release build cannot rot a DCHECK expression.
#define SPR_DCHECK(cond, ...)                  \
  do {                                         \
    if (false) {                               \
      (void)sizeof((cond) ? 1 : 0);            \
    }                                          \
  } while (false)
#endif
