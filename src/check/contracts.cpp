#include "check/contracts.hpp"

#include <sstream>

namespace cudalign::check {

namespace {

std::string render(const char* kind, const char* cond, const char* file, int line,
                   const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: " << cond << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  return os.str();
}

}  // namespace

namespace detail {

void fail_check(const char* cond, const char* file, int line, const std::string& msg) {
  throw Error(render("check", cond, file, line, msg));
}

void fail_assert(const char* kind, const char* cond, const char* file, int line,
                 const std::string& msg) {
  throw Error(render(kind, cond, file, line, msg));
}

}  // namespace detail
}  // namespace cudalign::check
