#include "mog/common/error.hpp"

namespace mog::detail {

void fail(const char* kind, const char* cond, const char* file, int line,
          const std::string& msg) {
  std::string s{kind};
  s += ": (";
  s += cond;
  s += ") at ";
  s += file;
  s += ':';
  s += std::to_string(line);
  if (!msg.empty()) {
    s += " — ";
    s += msg;
  }
  throw Error{s};
}

void fail(const char* kind, const char* cond, const char* file, int line,
          const char* msg) {
  fail(kind, cond, file, line, std::string{msg});
}

}  // namespace mog::detail
