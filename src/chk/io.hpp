#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

/// \file io.hpp
/// Dependency-free little-endian serialization primitives for the
/// checkpoint subsystem (DESIGN.md Section 10). The blob format is a
/// versioned header followed by a flat payload:
///
///   offset 0  : u64 magic "GHUMCHK\0" (little-endian constant)
///   offset 8  : u32 format version
///   offset 12 : u64 FNV-1a digest of the payload bytes (kDigestSeed)
///   offset 20 : u64 payload size in bytes
///   offset 28 : payload
///
/// Fixed-width fields are written explicitly (no struct memcpy) so the
/// format is identical across compilers; Reader throws StatusError-free
/// std::out_of_range on truncation so corruption is detected before any
/// machine state is mutated.

namespace ghum::chk {

inline constexpr std::uint64_t kMagic = 0x004b'4843'4d55'4847ull;  // "GHUMCHK\0"

/// The one blob format written and read: page tables as extents
/// (first_vpn, pages, pte), a has-data flag before each VMA's bytes,
/// materialize_backing after the config's name field, and every event
/// counter in the metrics-registry section only (no string-keyed stats
/// section, no engine tallies). Versions 1 and 2 are no longer read;
/// restore() rejects every other version.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Starting value of the payload digest (sim::fnv1a's \p h). It is one
/// decimal digit short of the FNV offset basis, and every blob and
/// state_digest() ever produced is stamped with it, so it stays.
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(const std::uint8_t* data, std::size_t size) {
    u64(size);
    buf_.insert(buf_.end(), data, data + size);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_++]} << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_++]} << (8 * i);
    return v;
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  /// Reads a record count and checks that that many records of at least
  /// \p min_record_bytes each still fit in the blob, so a corrupt count
  /// fails here instead of sizing an allocation.
  [[nodiscard]] std::uint64_t count(std::uint64_t min_record_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_record_bytes) {
      throw std::out_of_range{"chk: record count exceeds checkpoint blob"};
    }
    return n;
  }
  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s{reinterpret_cast<const char*>(data_ + pos_), n};
    pos_ += n;
    return s;
  }
  /// Reads a length-prefixed byte run into \p dst (which must hold the
  /// serialized length exactly — a size mismatch means the blob does not
  /// describe this allocation).
  void bytes_into(std::uint8_t* dst, std::size_t expect) {
    const std::uint64_t n = u64();
    if (n != expect) throw std::out_of_range{"chk: byte-run length mismatch"};
    need(n);
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void need(std::uint64_t n) const {
    if (size_ - pos_ < n) throw std::out_of_range{"chk: truncated checkpoint blob"};
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace ghum::chk
