#pragma once

// Shared helpers for the benchmark harnesses: CLI parsing and fixed-width
// table printing. Kept header-only so each bench stays a single file.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/strings.h"

namespace tetris::benchutil {

/// Common experiment knobs, overridable from the command line:
///   --iterations N   (default 20, the paper's averaging count)
///   --shots N        (default 1000, the paper's shot count)
///   --seed N         (default 2025)
///   --threads A,B,C  (worker-pool widths for throughput sweeps; only for
///                     harnesses that sweep them, default empty)
///   --out PATH       (where JSON-emitting benches write their result)
struct Args {
  int iterations = 20;
  /// True when --iterations appeared on the command line, for benches whose
  /// natural default differs from 20 (they must not mistake an explicit
  /// "--iterations 20" for "use your own default").
  bool iterations_set = false;
  std::size_t shots = 1000;
  std::uint64_t seed = 2025;
  std::vector<unsigned> threads;
  std::string out;
};

/// Parses the knobs above. A harness that sweeps no pool widths passes
/// `takes_threads = false`, and --threads then exits 2 naming the flag
/// instead of being ignored.
inline Args parse_args(int argc, char** argv, bool takes_threads = false) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next_str = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << flag << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto next = [&]() -> long { return std::strtol(next_str().c_str(), nullptr, 10); };
    if (flag == "--iterations") {
      args.iterations = static_cast<int>(next());
      args.iterations_set = true;
    } else if (flag == "--shots") {
      args.shots = static_cast<std::size_t>(next());
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(next());
    } else if (flag == "--threads" && !takes_threads) {
      std::cerr << argv[0] << " sweeps no pool widths: --threads is not a flag "
                   "of this harness\n";
      std::exit(2);
    } else if (flag == "--threads") {
      for (const std::string& part : split_char(next_str(), ',')) {
        long n = std::strtol(part.c_str(), nullptr, 10);
        if (n <= 0) {
          std::cerr << "--threads wants positive integers, got '" << part << "'\n";
          std::exit(2);
        }
        args.threads.push_back(static_cast<unsigned>(n));
      }
    } else if (flag == "--out") {
      args.out = next_str();
    } else if (flag == "--help" || flag == "-h") {
      std::cout << "flags: --iterations N  --shots N  --seed N  "
                << (takes_threads ? "--threads A,B,C  " : "")
                << "--out PATH\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      std::exit(2);
    }
  }
  return args;
}

/// Minimal fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers,
                 std::vector<int> widths)
      : headers_(std::move(headers)), widths_(std::move(widths)) {}

  void print_header() const {
    std::string line;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      line += pad_right(headers_[i], static_cast<std::size_t>(widths_[i]) + 2);
    }
    std::cout << line << "\n";
    std::cout << std::string(line.size(), '-') << "\n";
  }

  void print_row(const std::vector<std::string>& cells) const {
    std::string line;
    for (std::size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      line += pad_right(cells[i], static_cast<std::size_t>(widths_[i]) + 2);
    }
    std::cout << line << "\n";
  }

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

/// ASCII bar for the Fig.4-style chart: value in [0,1] mapped to `width`.
inline std::string bar(double value, int width = 40) {
  int filled = static_cast<int>(value * width + 0.5);
  if (filled < 0) filled = 0;
  if (filled > width) filled = width;
  return std::string(static_cast<std::size_t>(filled), '#') +
         std::string(static_cast<std::size_t>(width - filled), '.');
}

}  // namespace tetris::benchutil
