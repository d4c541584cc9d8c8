#include "obs/build_info.hpp"

#include <thread>

// The commit comes from the header src/obs/git_sha.cmake generates at build
// time; the other stamp macros are injected per-source-file by
// src/obs/CMakeLists.txt. The fallbacks keep non-CMake builds (and tooling
// that compiles this file standalone) compiling with an honest "unknown".
#if __has_include("ucp_git_sha.h")
#include "ucp_git_sha.h"
#endif
#ifndef UCP_GIT_SHA
#define UCP_GIT_SHA "unknown"
#endif
#ifndef UCP_CXX_FLAGS
#define UCP_CXX_FLAGS ""
#endif
#ifndef UCP_BUILD_TYPE
#define UCP_BUILD_TYPE "unknown"
#endif
#ifndef UCP_SANITIZE_PRESET
#define UCP_SANITIZE_PRESET "OFF"
#endif

namespace ucp::obs {

namespace {

std::string compiler_string() {
#if defined(__clang__)
  return std::string("Clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("GNU ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += ch; break;
    }
  }
  out += '"';
}

}  // namespace

const BuildInfo& build_info() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.git_sha = UCP_GIT_SHA;
    b.compiler = compiler_string();
    b.flags = UCP_CXX_FLAGS;
    b.build_type = UCP_BUILD_TYPE;
    b.sanitizer = UCP_SANITIZE_PRESET;
    b.hardware_concurrency = std::thread::hardware_concurrency();
    return b;
  }();
  return info;
}

const std::string& build_info_json() {
  static const std::string json = [] {
    const BuildInfo& b = build_info();
    std::string out = "{\"git_sha\":";
    append_json_string(out, b.git_sha);
    out += ",\"compiler\":";
    append_json_string(out, b.compiler);
    out += ",\"flags\":";
    append_json_string(out, b.flags);
    out += ",\"build_type\":";
    append_json_string(out, b.build_type);
    out += ",\"sanitizer\":";
    append_json_string(out, b.sanitizer);
    out += ",\"hardware_concurrency\":";
    out += std::to_string(b.hardware_concurrency);
    out += '}';
    return out;
  }();
  return json;
}

}  // namespace ucp::obs
