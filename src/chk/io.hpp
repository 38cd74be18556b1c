#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/status.hpp"
#include "mem/node.hpp"
#include "os/address_space.hpp"
#include "sim/event_log.hpp"

/// \file io.hpp
/// Little-endian serialization primitives for the checkpoint subsystem
/// (DESIGN.md Section 10). The blob format is a versioned header followed
/// by a flat payload:
///
///   offset 0  : u64 magic "GHUMCHK\0" (little-endian constant)
///   offset 8  : u32 format version
///   offset 12 : u64 FNV-1a digest of the payload bytes (kDigestSeed)
///   offset 20 : u64 payload size in bytes
///   offset 28 : payload
///
/// The payload is a sequence of fields with no tags or padding: u8, u32,
/// u64, i64, f64 (IEEE-754 bits as a u64), bool (one byte), string (u64
/// length, then the bytes), the machine's enums as one byte each (a
/// memory node, a VMA's allocation kind, an event type; an optional node
/// is node + 1, with 0 for none), and containers as a u64 count followed
/// by their elements (maps and sets in ascending key order). Writer and
/// Reader share one field interface — `ar(a, b, ...)`, seq(), map() and
/// set() — so snapshot.cpp names each section's fields once, in a
/// template over the archive. Fixed-width fields are written explicitly
/// (no struct memcpy) so the format is identical across compilers.
///
/// Reader throws std::out_of_range when the blob ends early, and
/// StatusError{kErrorInvalidValue} for a byte that names no value of its
/// enum, so a corrupt image is refused before it indexes anything.

namespace ghum::chk {

inline constexpr std::uint64_t kMagic = 0x004b'4843'4d55'4847ull;  // "GHUMCHK\0"

/// The one blob format written and read. Version 4 carries each fact of
/// the machine once, and nothing restore can rebuild:
///  - no per-call state, which is empty wherever snapshot() is legal: a
///    prefetch's protected blocks, the open causal span and the fault
///    suppression depth (snapshot() refuses to run inside the last two);
///  - no derived copy: the current tenant lives in the event log only;
///    frame capacities and baselines follow from the config and the
///    retired frames, the RSS from the VMAs, TLB hit/miss counts from the
///    registry, the link's degrade factors from the open link window, the
///    cross-tenant eviction sums from the eviction matrix and the
///    context-init charge from the context flag;
///  - no state that is never read after a snapshot: the access-counter
///    engine's per-kernel limiter (the next GPU note names a newer kernel);
///  - no retired config byte.
/// Versions 1 to 3 are no longer read; restore() rejects every other
/// version.
inline constexpr std::uint32_t kFormatVersion = 4;

/// Starting value of the payload digest (sim::fnv1a's \p h). It is one
/// decimal digit short of the FNV offset basis, and every blob and
/// state_digest() ever produced is stamped with it, so it stays.
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;

class Writer {
 public:
  /// Writes each field in order (the field interface shared with Reader).
  template <typename... Fields>
  void operator()(const Fields&... fields) {
    (field(fields), ...);
  }

  void field(std::uint8_t v) { buf_.push_back(v); }
  void field(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void field(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void field(std::int64_t v) { field(static_cast<std::uint64_t>(v)); }
  void field(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    field(bits);
  }
  void field(bool v) { buf_.push_back(v ? 1 : 0); }
  void field(const std::string& s) {
    field(std::uint64_t{s.size()});
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void field(mem::Node n) { field(static_cast<std::uint8_t>(n)); }
  void field(const std::optional<mem::Node>& n) {
    field(n ? static_cast<std::uint8_t>(static_cast<std::uint8_t>(*n) + 1)
            : std::uint8_t{0});
  }
  void field(os::AllocKind k) { field(static_cast<std::uint8_t>(k)); }
  void field(sim::EventType t) { field(static_cast<std::uint8_t>(t)); }

  /// A counted sequence: its size, then \p each(element) per element.
  template <typename Seq, typename Each>
  void seq(const Seq& s, Each each) {
    field(std::uint64_t{s.size()});
    for (const auto& e : s) each(e);
  }
  /// A map (ordered or not), in ascending key order: its size, then
  /// \p each(key, value) per entry.
  template <typename Map, typename Each>
  void map(const Map& m, Each each) {
    std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>> v{
        m.begin(), m.end()};
    std::sort(v.begin(), v.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    seq(v, [&each](const auto& kv) { each(kv.first, kv.second); });
  }
  /// A set of u64 keys (ordered or not), in ascending order.
  template <typename Set>
  void set(const Set& s) {
    std::vector<std::uint64_t> v{s.begin(), s.end()};
    std::sort(v.begin(), v.end());
    seq(v, [this](std::uint64_t k) { field(k); });
  }

  /// A length-prefixed byte run.
  void bytes(const std::uint8_t* data, std::size_t size) {
    field(std::uint64_t{size});
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

  /// Reads each field in order (the field interface shared with Writer).
  template <typename... Fields>
  void operator()(Fields&... fields) {
    (field(fields), ...);
  }

  void field(std::uint8_t& v) { v = u8(); }
  void field(std::uint32_t& v) { v = u32(); }
  void field(std::uint64_t& v) { v = u64(); }
  void field(std::int64_t& v) { v = i64(); }
  void field(double& v) {
    const std::uint64_t bits = u64();
    std::memcpy(&v, &bits, sizeof v);
  }
  void field(bool& v) { v = boolean(); }
  void field(std::string& s) { s = str(); }
  void field(mem::Node& n) { n = node(); }
  void field(std::optional<mem::Node>& n) {
    const std::uint8_t b = u8();
    n = b == 0 ? std::nullopt
               : std::optional<mem::Node>{
                     enumerator(static_cast<std::uint8_t>(b - 1), mem::Node::kGpu)};
  }
  void field(os::AllocKind& k) { k = enumerator(u8(), os::AllocKind::kPinnedHost); }
  void field(sim::EventType& t) { t = enumerator(u8(), sim::EventType::kJobRestart); }

  /// A counted sequence into \p v: each element is appended and read by
  /// \p each, so a corrupt count fails on the blob's end instead of sizing
  /// an allocation.
  template <typename T, typename Each>
  void seq(std::vector<T>& v, Each each) {
    v.clear();
    for (std::uint64_t i = 0, n = u64(); i < n; ++i) each(v.emplace_back());
  }
  /// A map: \p each(key, value) reads each entry; a repeated key keeps its
  /// last value.
  template <typename Map, typename Each>
  void map(Map& m, Each each) {
    m.clear();
    for (std::uint64_t i = 0, n = u64(); i < n; ++i) {
      typename Map::key_type k{};
      typename Map::mapped_type v{};
      each(k, v);
      m.insert_or_assign(k, v);
    }
  }
  /// A set of u64 keys.
  template <typename Set>
  void set(Set& s) {
    s.clear();
    for (std::uint64_t i = 0, n = u64(); i < n; ++i) s.insert(u64());
  }

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
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] mem::Node node() { return enumerator(u8(), mem::Node::kGpu); }
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

  /// Converts byte \p b to an enumerator of E, whose last enumerator is
  /// \p last, refusing a byte that names none: the machine switches on
  /// these values and indexes its tables with them.
  template <typename E>
  [[nodiscard]] static E enumerator(std::uint8_t b, E last) {
    if (b > static_cast<std::uint8_t>(last)) {
      throw StatusError{Status::kErrorInvalidValue,
                        "checkpoint: an enum byte names no enumerator"};
    }
    return static_cast<E>(b);
  }

 private:
  void need(std::uint64_t n) const {
    if (size_ - pos_ < n) throw std::out_of_range{"chk: truncated checkpoint blob"};
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace ghum::chk
