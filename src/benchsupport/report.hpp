#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/app_common.hpp"

/// \file report.hpp
/// Plain-text table/series printers used by every bench binary. Benches
/// print (a) a human-readable table mirroring the paper's figure, and
/// (b) machine-readable TSV blocks (prefixed "data\t") for replotting.
/// Gate benches also write a BENCH_*.json artifact and exit nonzero on
/// any failed gate.

namespace ghum::benchsupport {

/// Prints "## <figure id> — <caption>" plus a paper-expectation note.
void print_figure_header(std::string_view figure, std::string_view caption,
                         std::string_view paper_expectation);

/// One row of an app-report table (mode, per-phase seconds, total).
void print_report_row(const apps::AppReport& report);
void print_report_table_header();

/// speedup = baseline / value (paper Figure 3 convention: higher is
/// better, relative to the explicit version).
[[nodiscard]] double speedup(double baseline_s, double value_s);

/// Key-value result line benches use for single numbers.
void print_metric(std::string_view name, double value, std::string_view unit);

/// Named counts, printed and written in order. print_counts prints
/// `  a=1 b=2` as one line; json_counts writes each count as its own
/// `  "a": 1,` line of a BENCH_*.json object; json_object writes
/// `  "name": {"a": 1, "b": 2},` on one line.
using Counts = std::vector<std::pair<std::string_view, std::uint64_t>>;
void print_counts(const Counts& counts);
void json_counts(std::FILE* f, const Counts& counts);
void json_object(std::FILE* f, std::string_view name, const Counts& counts);

/// A bench's named pass/fail gates: print_gates prints them as one
/// "gates: name=ok|FAIL ..." line, json_gates writes them as the "gates"
/// object ("name_ok": true|false, a '-' in a name written as '_').
using Gates = std::vector<std::pair<std::string_view, bool>>;
void print_gates(const Gates& gates);
void json_gates(std::FILE* f, const Gates& gates);

/// Prints the verdict and returns the exit status: 0 after "all <bench>
/// checks passed", 1 after "FAIL: <n> <bench> check failures" on stderr.
[[nodiscard]] int verdict(std::string_view bench, std::size_t failures);

/// Closes a gate bench's BENCH_*.json object with "total_failures" and
/// "ok".
void json_tail(std::FILE* f, std::size_t failures);

/// Writes one artifact file: opens \p path, lets \p body fill it and
/// prints "wrote <path>". Returns false, with a message on stderr, when
/// the file cannot be opened.
[[nodiscard]] bool write_artifact(const std::string& path,
                                  const std::function<void(std::FILE*)>& body);

}  // namespace ghum::benchsupport
