#include "apps/app_common.hpp"

namespace ghum::apps {

std::string_view to_string(MemMode m) noexcept {
  switch (m) {
    case MemMode::kExplicit: return "explicit";
    case MemMode::kManaged: return "managed";
    case MemMode::kSystem: return "system";
  }
  return "unknown";
}

AppReport drive(AppCoro coro) {
  while (coro.step()) {
  }
  return std::move(coro.report());
}

UnifiedBuffer UnifiedBuffer::create(runtime::Runtime& rt, MemMode mode,
                                    std::uint64_t bytes, std::string label) {
  UnifiedBuffer ub;
  switch (mode) {
    case MemMode::kExplicit:
      ub.unified_ = false;
      ub.host_ = rt.malloc_system(bytes, label + ".host");
      ub.dev_ = rt.malloc_device(bytes, label + ".dev");
      break;
    case MemMode::kManaged:
      ub.unified_ = true;
      ub.buf_ = rt.malloc_managed(bytes, label);
      break;
    case MemMode::kSystem:
      ub.unified_ = true;
      ub.buf_ = rt.malloc_system(bytes, label);
      break;
  }
  return ub;
}

void UnifiedBuffer::h2d(runtime::Runtime& rt) { h2d(rt, host().bytes); }
void UnifiedBuffer::d2h(runtime::Runtime& rt) { d2h(rt, host().bytes); }

void UnifiedBuffer::h2d(runtime::Runtime& rt, std::uint64_t bytes) {
  if (unified_) return;
  rt.memcpy(dev_, host_, bytes, runtime::CopyKind::kHostToDevice);
}

void UnifiedBuffer::d2h(runtime::Runtime& rt, std::uint64_t bytes) {
  if (unified_) return;
  rt.memcpy(host_, dev_, bytes, runtime::CopyKind::kDeviceToHost);
}

void UnifiedBuffer::free(runtime::Runtime& rt) {
  if (unified_) {
    if (buf_.valid()) rt.free(buf_);
  } else {
    if (host_.valid()) rt.free(host_);
    if (dev_.valid()) rt.free(dev_);
  }
}

}  // namespace ghum::apps
