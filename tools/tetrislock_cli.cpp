// tetrislock_cli — command-line front-end for the TetrisLock library.
//
// Subcommands:
//   info       --benchmark NAME | --in FILE[.real|.qasm]
//              print circuit statistics and an ASCII diagram
//   obfuscate  --benchmark NAME | --in FILE  [--seed N] [--max-gates N]
//              [--alphabet x|cx|mixed|h] [--gap] [--out FILE.qasm]
//              run Algorithm 1 and emit the obfuscated circuit
//   split      --benchmark NAME | --in FILE  [--seed N] [--max-gates N]
//              [--alphabet ...] [--gap] [--out-prefix PATH]
//              interlock-split; emits one .qasm per segment + the
//              designer-side qubit maps on stdout
//   protect    --benchmark NAME | --in FILE | --batch DIR  [--seed N]
//              [--shots N] [--sample-jobs N] [--fuse] [--backend KIND]
//              [--cache] [--out-json FILE] [--trace]
//              full flow through the service facade: obfuscate, split,
//              split-compile, recombine, verify on the noisy simulated
//              device; prints a Table-I row. --batch DIR runs the flow over
//              every .real/.qasm file in DIR concurrently, streaming one row
//              per circuit as it completes plus a throughput summary;
//              --batch revlib uses the built-in Table-I RevLib suite.
//              --shots N sets the trajectory count of the noisy
//              verification (>= 1; error bars shrink as 1/sqrt(shots)) and
//              --sample-jobs N caps each sampler's worker fan-out (default
//              0 = share the service pool; 1 = serial samplers). Counts are
//              bit-identical at any --sample-jobs/--jobs value.
//              --fuse turns on gate fusion in the noisy verification's
//              ideal statevector runs (sim/fusion.h): each qubit's gates
//              within a window of single-qubit gates merge into one 2x2,
//              cutting sweeps; errored trajectories replay gate by gate.
//              Off by default — merged 2x2s reorder floating point, so
//              sampled metrics shift within shot noise and the flag is part
//              of the result-cache fingerprint.
//              --backend auto|statevector|stabilizer picks the
//              simulation engine of the sampled runs (src/sim/backend/).
//              auto (the default) resolves to the statevector unless the
//              circuit is Clifford and wider than the statevector's auto
//              ceiling, where the stabilizer tableau engine takes over —
//              the path that verifies 50+-qubit locked Clifford circuits.
//              Resolved non-statevector engines join the cache fingerprint
//              and are echoed in the JSON sampler block.
//              --cache enables the service result cache (hit/miss counters
//              in the summary); --out-json writes the machine-readable
//              outcome document. --store DIR adds the durable artifact tier:
//              finished flows persist to DIR as versioned binary artifacts
//              (docs/FORMATS.md) and later runs with the same (circuit,
//              seed, config) answer from disk instead of recomputing — even
//              across process restarts.
//   complexity --n N --nmax M [--k K]
//              Eq. 1 attack-complexity numbers vs the cascade baseline
//   serve      [--port N] [--jobs N] [--cache] [--store DIR]
//              [--store-max N] [--max-body BYTES]
//              embedded REST server (src/net/) over the service facade on
//              127.0.0.1. Prints "listening on http://127.0.0.1:PORT"
//              (--port 0 binds an ephemeral port) and serves until SIGINT/
//              SIGTERM, then shuts down cleanly. Endpoints: POST /v1/jobs,
//              GET /v1/jobs/{id}[?timing=0], GET /v1/jobs/{id}/artifact,
//              DELETE /v1/jobs/{id}, GET /v1/status — docs/API.md is the
//              full reference. --jobs sizes the service's private worker
//              pool (so job compute never blocks connection handling);
//              --cache enables the result cache; --store DIR adds the disk
//              artifact tier (a restarted server warm-starts from DIR;
//              --store-max N caps it at N artifacts, oldest evicted);
//              --max-body caps request bodies.
//   submit     --url http://HOST:PORT (--benchmark NAME | --in FILE)
//              [--seed N] [--shots N] [--sample-jobs N] [--fuse]
//              [--backend KIND] [--max-gates N] [--alphabet ...]
//              [--gap] [--poll-ms N]
//              [--wait-s N] [--out-json FILE] [--trace]
//              network counterpart of `protect`: POSTs the circuit to a
//              running `serve` instance, polls GET /v1/jobs/{id} until the
//              job is terminal, prints the Table-I row, and optionally
//              writes the result document. Same seed + flags produce a
//              JobOutcome JSON byte-identical (modulo wall-time fields) to
//              `protect --out-json` run in-process.
//   fetch      --url http://HOST:PORT --id N [--out FILE] | --in FILE
//              download (GET /v1/jobs/{id}/artifact) or read a versioned
//              binary artifact, fully validate it (magic, version, checksum,
//              bounded payload parse — docs/FORMATS.md), print its
//              provenance key and Table-I metrics, and optionally write the
//              raw bytes to FILE. The downloaded bytes are byte-identical
//              to the server's --store file for the same job, so
//              `fetch --out f.tla` + `cmp f.tla STORE/<key>.tla` is the
//              end-to-end integrity check CI runs.
//
// Every subcommand additionally accepts --jobs N (1..1024), which sizes the
// shared worker pool used by the service and the sampler (default:
// TETRIS_THREADS env var, then hardware concurrency); serve and dispatch
// size their own pools with it instead, and submit and fetch ignore it. Unknown
// flags and non-integer values for integer flags are rejected with a
// per-subcommand error instead of being silently ignored.
//
// Exit status is non-zero on any validation failure, so the tool can anchor
// shell pipelines and CI checks.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common/combinatorics.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "compiler/target.h"
#include "lock/complexity.h"
#include "lock/pipeline.h"
#include "net/client.h"
#include "net/dispatch.h"
#include "net/server.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "qir/qasm.h"
#include "qir/render.h"
#include "revlib/benchmarks.h"
#include "revlib/real_format.h"
#include "runtime/thread_pool.h"
#include "service/serialize.h"
#include "service/service.h"
#include "sim/sampler.h"

namespace {

using namespace tetris;

struct Options {
  std::map<std::string, std::string> values;
  /// Flags that may repeat (e.g. `dispatch --node URL --node URL`), in
  /// command-line order.
  std::map<std::string, std::vector<std::string>> lists;
  const std::vector<std::string>& get_list(const std::string& key) const {
    static const std::vector<std::string> kEmpty;
    auto it = lists.find(key);
    return it == lists.end() ? kEmpty : it->second;
  }
  bool has(const std::string& key) const { return values.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  /// Integer flag value, validated: non-numeric text, trailing junk,
  /// overflow, and values outside [min_value, max_value] all become an
  /// InvalidArgument naming the flag (values like `--shots -1` would
  /// otherwise wrap to a huge std::size_t at the use site).
  long get_long(const std::string& key, long fallback,
                long min_value = std::numeric_limits<long>::min(),
                long max_value = std::numeric_limits<long>::max()) const {
    auto it = values.find(key);
    if (it == values.end()) return fallback;
    long v = 0;
    try {
      std::size_t consumed = 0;
      v = std::stol(it->second, &consumed);
      if (consumed != it->second.size()) {
        throw std::invalid_argument("trailing characters");
      }
    } catch (const std::exception&) {
      throw InvalidArgument("--" + key + " expects an integer, got '" +
                            it->second + "'");
    }
    if (v < min_value) {
      throw InvalidArgument("--" + key + " must be >= " +
                            std::to_string(min_value) + ", got " +
                            std::to_string(v));
    }
    if (v > max_value) {
      throw InvalidArgument("--" + key + " must be <= " +
                            std::to_string(max_value) + ", got " +
                            std::to_string(v));
    }
    return v;
  }
};

/// Flags that take no value.
const std::set<std::string>& boolean_flags() {
  static const std::set<std::string> kFlags = {"gap", "cache", "fuse",
                                               "trace"};
  return kFlags;
}

/// Per-subcommand flag whitelist; --jobs is accepted everywhere.
const std::set<std::string>* allowed_flags(const std::string& cmd) {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"info", {"benchmark", "in"}},
      {"obfuscate",
       {"benchmark", "in", "seed", "max-gates", "alphabet", "gap", "out"}},
      {"split",
       {"benchmark", "in", "seed", "max-gates", "alphabet", "gap",
        "out-prefix"}},
      {"protect",
       {"benchmark", "in", "batch", "seed", "shots", "sample-jobs", "fuse",
        "backend", "max-gates", "alphabet", "gap", "cache", "store",
        "out-json", "trace"}},
      {"complexity", {"n", "nmax", "k"}},
      {"serve",
       {"port", "cache", "store", "store-max", "max-body",
        "max-requests-per-conn"}},
      {"dispatch", {"port", "node", "max-body", "max-requests-per-conn"}},
      {"submit",
       {"url", "benchmark", "in", "seed", "shots", "sample-jobs", "fuse",
        "backend", "max-gates", "alphabet", "gap", "poll-ms", "wait-s",
        "out-json", "trace"}},
      {"fetch", {"url", "id", "in", "out"}},
  };
  auto it = kAllowed.find(cmd);
  return it == kAllowed.end() ? nullptr : &it->second;
}

Options parse(int argc, char** argv, int start,
              const std::string& cmd, const std::set<std::string>& allowed) {
  Options o;
  for (int i = start; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      throw InvalidArgument("expected --flag, got '" + flag + "'");
    }
    flag = flag.substr(2);
    if (flag != "jobs" && allowed.count(flag) == 0) {
      throw InvalidArgument("unknown flag --" + flag + " for subcommand '" +
                            cmd + "'");
    }
    if (boolean_flags().count(flag) > 0) {
      o.values[flag] = "1";
    } else {
      if (i + 1 >= argc) throw InvalidArgument("missing value for --" + flag);
      o.values[flag] = argv[++i];
      o.lists[flag].push_back(o.values[flag]);
    }
  }
  return o;
}

qir::Circuit load_circuit_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidArgument("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  if (path.size() >= 5 && path.substr(path.size() - 5) == ".real") {
    return revlib::from_real(buffer.str());
  }
  return qir::from_qasm(buffer.str());
}

qir::Circuit load_circuit(const Options& o, std::vector<int>* measured) {
  if (o.has("benchmark")) {
    const auto& b = revlib::get_benchmark(o.get("benchmark"));
    if (measured) *measured = b.measured;
    return b.circuit;
  }
  if (!o.has("in")) {
    throw InvalidArgument("need --benchmark NAME or --in FILE");
  }
  qir::Circuit circuit = load_circuit_file(o.get("in"));
  if (measured) {
    measured->clear();
    for (int q = 0; q < circuit.num_qubits(); ++q) measured->push_back(q);
  }
  return circuit;
}

lock::InsertionConfig insertion_config(const Options& o) {
  lock::InsertionConfig cfg;
  cfg.max_random_gates = static_cast<int>(o.get_long("max-gates", 2, 0));
  cfg.allow_gap_insertion = o.has("gap");
  cfg.alphabet = lock::parse_insertion_alphabet(o.get("alphabet", "mixed"));
  return cfg;
}

void write_or_print(const std::string& text, const std::string& path) {
  if (path.empty()) {
    std::cout << text;
    return;
  }
  std::ofstream out(path);
  if (!out) throw InvalidArgument("cannot write " + path);
  out << text;
  std::cout << "wrote " << path << "\n";
}

/// Flow knobs from the shared protect flags. --shots 0 is rejected with a
/// named-flag error (a 0-shot verification would silently report accuracy
/// and TVD over an empty histogram); --sample-jobs 0 is the "share the
/// service pool" default.
lock::FlowConfig flow_config(const Options& o) {
  lock::FlowConfig cfg;
  cfg.insertion = insertion_config(o);
  cfg.shots = static_cast<std::size_t>(o.get_long("shots", 1000, 1));
  cfg.sample_threads =
      static_cast<unsigned>(o.get_long("sample-jobs", 0, 0));
  cfg.fusion = o.has("fuse");
  cfg.backend = sim::parse_backend_kind(o.get("backend", "auto"));
  return cfg;
}

/// Service configured from the shared protect flags.
service::ServiceConfig service_config(const Options& o, std::size_t jobs) {
  service::ServiceConfig cfg;
  cfg.base_seed = static_cast<std::uint64_t>(o.get_long("seed", 2025, 0));
  cfg.cache_capacity =
      o.has("cache") ? std::max<std::size_t>(jobs, 64) : 0;
  cfg.store_dir = o.get("store");
  cfg.store_max_entries =
      static_cast<std::size_t>(o.get_long("store-max", 0, 0));
  return cfg;
}

void print_cache_stats(const service::CacheStats& stats) {
  std::cout << "cache: " << stats.hits << " hits, " << stats.misses
            << " misses, " << stats.evictions << " evictions, "
            << stats.entries << "/" << stats.capacity << " entries\n";
}

/// A counter or gauge total from a registry snapshot, for summary lines.
std::uint64_t metric(const std::vector<obs::Family>& families,
                     const char* name, const obs::Labels& match = {}) {
  return static_cast<std::uint64_t>(obs::sum_samples(families, name, match));
}

void print_store_stats(const service::Service& svc) {
  const service::ArtifactStore* store = svc.artifact_store();
  if (store == nullptr) return;
  const auto m = svc.telemetry().collect();
  std::cout << "store: " << metric(m, "tetris_store_hits_total") << " hits, "
            << metric(m, "tetris_store_misses_total") << " misses, "
            << metric(m, "tetris_store_writes_total") << " writes, "
            << metric(m, "tetris_store_corrupt_total") << " corrupt, "
            << metric(m, "tetris_store_evictions_total") << " evictions, "
            << metric(m, "tetris_store_entries") << " artifacts in "
            << store->config().dir << "\n";
}

/// --trace: one stderr line per pipeline span (stderr so --out-json and the
/// stdout table stay machine-parseable with tracing on).
void print_trace_summary(const obs::Trace& trace) {
  double total = 0.0;
  for (const obs::Span& span : trace.spans()) total += span.duration_seconds;
  std::cerr << "trace: " << trace.spans().size() << " spans, "
            << fmt_double(total, 3) << "s in stages\n";
  for (const obs::Span& span : trace.spans()) {
    std::cerr << "  " << pad_right(span.name, 18) << " +"
              << fmt_double(span.start_seconds, 3) << "s  "
              << fmt_double(span.duration_seconds, 3) << "s";
    for (const auto& attr : span.attrs) {
      std::cerr << "  " << attr.first << "=" << attr.second;
    }
    std::cerr << "\n";
  }
}

/// Same summary from a GET /v1/jobs/{id}/trace document (submit path).
void print_trace_document(const json::Value& doc) {
  const json::Value::Array& spans = doc.at("spans").as_array();
  double total = 0.0;
  for (const json::Value& span : spans) {
    total += span.at("duration_seconds").as_number();
  }
  std::cerr << "trace: " << spans.size() << " spans, " << fmt_double(total, 3)
            << "s in stages\n";
  for (const json::Value& span : spans) {
    std::cerr << "  " << pad_right(span.at("name").as_string(), 18) << " +"
              << fmt_double(span.at("start_seconds").as_number(), 3) << "s  "
              << fmt_double(span.at("duration_seconds").as_number(), 3)
              << "s";
    if (const json::Value* attrs = span.find("attrs")) {
      for (const auto& attr : attrs->as_object()) {
        std::cerr << "  " << attr.first << "=" << attr.second.as_string();
      }
    }
    std::cerr << "\n";
  }
}

int cmd_info(const Options& o) {
  std::vector<int> measured;
  auto circuit = load_circuit(o, &measured);
  std::cout << "name   : " << (circuit.name().empty() ? "(unnamed)" : circuit.name()) << "\n";
  std::cout << "qubits : " << circuit.num_qubits() << "\n";
  std::cout << "gates  : " << circuit.gate_count() << "\n";
  std::cout << "depth  : " << circuit.depth() << "\n";
  std::cout << "ops    :";
  for (const auto& [op, count] : circuit.count_ops()) {
    std::cout << " " << op << ":" << count;
  }
  std::cout << "\nclassical(reversible): "
            << (circuit.is_classical() ? "yes" : "no") << "\n\n";
  std::cout << qir::render(circuit);
  return 0;
}

int cmd_obfuscate(const Options& o) {
  auto circuit = load_circuit(o, nullptr);
  Rng rng(static_cast<std::uint64_t>(o.get_long("seed", 2025, 0)));
  lock::Obfuscator obfuscator(insertion_config(o));
  auto obf = obfuscator.obfuscate(circuit, rng);
  std::cout << "inserted " << obf.inserted_gates() << " gates ("
            << obf.random.size() << " random + inverses), depth "
            << circuit.depth() << " -> " << obf.circuit.depth() << "\n";
  write_or_print(qir::to_qasm(obf.circuit), o.get("out"));
  return 0;
}

int cmd_split(const Options& o) {
  auto circuit = load_circuit(o, nullptr);
  Rng rng(static_cast<std::uint64_t>(o.get_long("seed", 2025, 0)));
  lock::Obfuscator obfuscator(insertion_config(o));
  auto obf = obfuscator.obfuscate(circuit, rng);
  lock::InterlockSplitter splitter;
  auto pair = splitter.split(obf, rng);

  std::string prefix = o.get("out-prefix");
  int index = 1;
  for (const auto* split : {&pair.first, &pair.second}) {
    std::cout << "segment " << index << ": "
              << split->circuit.num_qubits() << " qubits, "
              << split->circuit.gate_count() << " gates; local->orig map:";
    for (std::size_t l = 0; l < split->local_to_orig.size(); ++l) {
      std::cout << " " << l << "->" << split->local_to_orig[l];
    }
    std::cout << "\n";
    if (!prefix.empty()) {
      write_or_print(qir::to_qasm(split->circuit),
                     prefix + "_split" + std::to_string(index) + ".qasm");
    }
    ++index;
  }
  return 0;
}

/// `protect --batch DIR`: every .real/.qasm circuit in DIR (or the built-in
/// RevLib suite for DIR == "revlib") through the service facade,
/// concurrently; rows stream out in submission order as jobs complete.
int cmd_protect_batch(const Options& o) {
  lock::FlowConfig cfg = flow_config(o);

  std::vector<lock::FlowJob> jobs;
  const std::string dir = o.get("batch");
  if (dir == "revlib") {
    for (const auto& b : revlib::table1_benchmarks()) {
      jobs.push_back(lock::make_flow_job(b.name, b.circuit, b.measured, cfg));
    }
  } else {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension().string();
      if (ext == ".real" || ext == ".qasm") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      throw InvalidArgument("no .real/.qasm circuits in " + dir);
    }
    for (const auto& file : files) {
      jobs.push_back(lock::make_flow_job(file.stem().string(),
                                         load_circuit_file(file.string()),
                                         {}, cfg));
    }
  }

  service::Service svc(service_config(o, jobs.size()));
  const auto start = std::chrono::steady_clock::now();
  svc.submit_all(jobs);

  std::cout << "circuit           depth      gates      acc(C)  acc(rest)  "
               "TVD(obf)  TVD(rest)  time\n";
  std::size_t depth_violations = 0;
  std::size_t failures = 0;
  // Only the JSON document needs the outcomes after printing; skip the
  // second FlowResult deep copy when --out-json was not requested.
  const bool keep_outcomes = o.has("out-json");
  std::vector<service::JobOutcome> outcomes;
  if (keep_outcomes) outcomes.reserve(jobs.size());
  svc.drain([&](const service::JobOutcome& out) {
    if (keep_outcomes) outcomes.push_back(out);
    std::cout << pad_right(out.name, 18);
    if (out.state != service::JobState::kDone) {
      ++failures;
      std::cout << "FAILED [" << service::status_code_name(out.status.code)
                << "]: " << out.status.message << "\n";
      return;
    }
    const auto& r = out.result;
    std::cout << pad_right(std::to_string(r.depth_original) + "->" +
                               std::to_string(r.depth_obfuscated), 11)
              << pad_right(std::to_string(r.gates_original) + "->" +
                               std::to_string(r.gates_obfuscated), 11)
              << pad_right(fmt_double(r.accuracy_original, 3), 8)
              << pad_right(fmt_double(r.accuracy_restored, 3), 11)
              << pad_right(fmt_double(r.tvd_obfuscated, 3), 10)
              << pad_right(fmt_double(r.tvd_restored, 3), 11)
              << fmt_double(out.seconds, 3) << "s";
    if (out.cache_hit) std::cout << "  (cached)";
    // Same validation single-circuit protect enforces: obfuscation must not
    // change the depth.
    if (r.depth_obfuscated != r.depth_original) {
      ++depth_violations;
      std::cout << "  ERROR: depth changed";
    }
    std::cout << "\n";
  });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  const unsigned threads = svc.pool_stats().threads;
  std::cout << "\nbatch: " << jobs.size() << " circuits, " << failures
            << " failed, " << depth_violations << " depth violations, "
            << fmt_double(wall, 3) << "s wall, "
            << fmt_double(wall > 0.0 ? jobs.size() / wall : 0.0, 2)
            << " circuits/s on " << threads << " threads\n";
  const auto cache = svc.cache_stats();
  if (o.has("cache")) print_cache_stats(cache);
  print_store_stats(svc);

  if (o.has("out-json")) {
    write_or_print(service::batch_to_json(outcomes, threads, wall,
                                      o.has("cache") ? &cache : nullptr),
               o.get("out-json"));
  }
  return (failures == 0 && depth_violations == 0) ? 0 : 1;
}

int cmd_protect(const Options& o) {
  if (o.has("batch")) return cmd_protect_batch(o);
  std::vector<int> measured;
  auto circuit = load_circuit(o, &measured);
  const auto seed = static_cast<std::uint64_t>(o.get_long("seed", 2025, 0));
  auto selection = compiler::device_for(circuit.num_qubits());
  const auto target = selection.target;
  if (selection.fallback) {
    std::cerr << "warning: " << selection.note << "\n";
  }
  lock::FlowConfig cfg = flow_config(o);

  lock::FlowJob job;
  job.name = circuit.name().empty() ? o.get("benchmark", "circuit")
                                    : circuit.name();
  job.circuit = std::move(circuit);
  job.measured = std::move(measured);
  job.target = std::move(selection.target);
  job.config = cfg;
  if (selection.fallback) job.warnings.push_back(std::move(selection.note));

  service::Service svc(service_config(o, 1));
  // The explicit seed keeps the single-circuit output identical to the
  // pre-service CLI, which seeded Rng(seed) directly.
  auto outcome = svc.submit(std::move(job), seed).wait();
  if (outcome.state != service::JobState::kDone) {
    std::cerr << "error [" << service::status_code_name(outcome.status.code)
              << "]: " << outcome.status.message << "\n";
    return 1;
  }
  const auto& r = outcome.result;

  std::cout << "device            : " << target.name << " (noise "
            << target.noise.name << ")\n";
  std::cout << "depth             : " << r.depth_original << " -> "
            << r.depth_obfuscated << "\n";
  std::cout << "gates             : " << r.gates_original << " -> "
            << r.gates_obfuscated << "\n";
  std::cout << "split widths      : " << r.splits.first.circuit.num_qubits()
            << " / " << r.splits.second.circuit.num_qubits() << "\n";
  std::cout << "accuracy original : " << fmt_double(r.accuracy_original, 3) << "\n";
  std::cout << "accuracy restored : " << fmt_double(r.accuracy_restored, 3) << "\n";
  std::cout << "TVD obfuscated    : " << fmt_double(r.tvd_obfuscated, 3) << "\n";
  std::cout << "TVD restored      : " << fmt_double(r.tvd_restored, 3) << "\n";
  if (o.has("cache")) print_cache_stats(svc.cache_stats());
  print_store_stats(svc);
  if (o.has("trace")) print_trace_summary(outcome.trace);
  if (o.has("out-json")) {
    write_or_print(service::to_json(outcome), o.get("out-json"));
  }
  bool ok = r.depth_obfuscated == r.depth_original;
  std::cout << (ok ? "OK: zero depth overhead\n" : "ERROR: depth changed\n");
  return ok ? 0 : 1;
}

int cmd_complexity(const Options& o) {
  int n = static_cast<int>(o.get_long("n", 5, 1));
  int nmax = static_cast<int>(o.get_long("nmax", 27, 1));
  double k = static_cast<double>(o.get_long("k", 1, 1));
  double cascade = lock::log_attack_complexity_cascade(n, k);
  double tetris = lock::log_attack_complexity_tetrislock(n, nmax, k);
  std::cout << "cascade  (k*n!)  : 10^" << fmt_double(log_to_log10(cascade), 2)
            << " candidates\n";
  std::cout << "tetrislock (Eq.1): 10^" << fmt_double(log_to_log10(tetris), 2)
            << " candidates (nmax=" << nmax << ")\n";
  std::cout << "advantage        : 10^"
            << fmt_double(log_to_log10(tetris - cascade), 2) << "x\n";
  return 0;
}

// Self-pipe shutdown for `serve`: the signal handler only writes one byte,
// the main thread blocks on the read end and runs the orderly stop.
int g_stop_pipe[2] = {-1, -1};

extern "C" void serve_stop_handler(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = write(g_stop_pipe[1], &byte, 1);
}

int cmd_serve(const Options& o) {
  service::ServiceConfig scfg;
  scfg.base_seed = 2025;  // unused: every HTTP submission carries its seed
  scfg.num_threads = static_cast<unsigned>(
      o.has("jobs") ? o.get_long("jobs", 0, 1)
                    : runtime::ThreadPool::default_global_threads());
  scfg.cache_capacity = o.has("cache") ? 128 : 0;
  scfg.store_dir = o.get("store");
  scfg.store_max_entries =
      static_cast<std::size_t>(o.get_long("store-max", 0, 0));

  net::ServerConfig ncfg;
  ncfg.port = static_cast<int>(o.get_long("port", 8080, 0));
  ncfg.max_body_bytes =
      static_cast<std::size_t>(o.get_long("max-body", 1 << 20, 1024));
  ncfg.max_requests_per_connection =
      static_cast<std::size_t>(o.get_long("max-requests-per-conn", 0, 0));

  service::Service svc(scfg);
  net::Server server(svc, ncfg);

  if (pipe(g_stop_pipe) != 0) throw Error("serve: cannot create stop pipe");
  std::signal(SIGINT, serve_stop_handler);
  std::signal(SIGTERM, serve_stop_handler);

  server.start();
  std::cout << "listening on " << server.base_url() << "\n" << std::flush;

  char byte = 0;
  while (read(g_stop_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::cout << "shutting down\n";
  server.stop();
  const auto m = server.telemetry().collect();
  std::cout << "served " << metric(m, "tetris_http_requests_total")
            << " requests over " << metric(m, "tetris_http_connections_total")
            << " connections; " << svc.jobs_submitted() << " jobs submitted\n";
  print_store_stats(svc);
  return 0;
}

/// `dispatch`: consistent-hash front-end over N running `serve` nodes.
/// Shares the serve self-pipe shutdown (SIGINT/SIGTERM drain).
int cmd_dispatch(const Options& o) {
  net::DispatcherConfig cfg;
  cfg.port = static_cast<int>(o.get_long("port", 8080, 0));
  cfg.nodes = o.get_list("node");
  if (cfg.nodes.empty()) {
    throw InvalidArgument(
        "dispatch needs at least one --node http://HOST:PORT");
  }
  for (const std::string& url : cfg.nodes) {
    net::parse_url(url);  // fail fast on typos, before binding the port
  }
  cfg.max_body_bytes =
      static_cast<std::size_t>(o.get_long("max-body", 1 << 20, 1024));
  cfg.max_requests_per_connection =
      static_cast<std::size_t>(o.get_long("max-requests-per-conn", 0, 0));
  // Private handler pool: every leg of a proxied request blocks on an
  // upstream node, so sharing the global compute pool would let slow nodes
  // starve unrelated work.
  cfg.handler_threads = static_cast<unsigned>(
      o.has("jobs") ? o.get_long("jobs", 0, 1) : 8);

  net::Dispatcher dispatcher(cfg);

  if (pipe(g_stop_pipe) != 0) {
    throw Error("dispatch: cannot create stop pipe");
  }
  std::signal(SIGINT, serve_stop_handler);
  std::signal(SIGTERM, serve_stop_handler);

  dispatcher.start();
  std::cout << "dispatching on " << dispatcher.base_url() << " across "
            << cfg.nodes.size() << " node(s)\n"
            << std::flush;

  char byte = 0;
  while (read(g_stop_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::cout << "shutting down\n";
  dispatcher.stop();
  const auto m = dispatcher.telemetry().collect();
  std::cout << "served " << metric(m, "tetris_dispatch_requests_total")
            << " requests over "
            << metric(m, "tetris_dispatch_connections_total")
            << " connections\n";
  for (const std::string& url : cfg.nodes) {
    const obs::Labels node = {{"node", url}};
    std::cout << "  " << url << ": "
              << metric(m, "tetris_dispatch_jobs_routed_total", node)
              << " jobs routed, "
              << metric(m, "tetris_dispatch_upstream_failures_total", node)
              << " upstream failures\n";
  }
  return 0;
}

/// `fetch`: download or read one versioned binary artifact, validate it end
/// to end, and report what it holds. Validation IS the point — a fetch that
/// succeeds proves the bytes parse, the checksum matches, and the embedded
/// provenance key is intact.
int cmd_fetch(const Options& o) {
  std::string bytes;
  std::string origin;
  if (o.has("in")) {
    const std::string path = o.get("in");
    std::ifstream in(path, std::ios::binary);
    if (!in) throw InvalidArgument("cannot open " + path);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    origin = path;
  } else {
    if (!o.has("url") || !o.has("id")) {
      throw InvalidArgument(
          "fetch needs --url http://HOST:PORT --id N (or --in FILE)");
    }
    const long id = o.get_long("id", 0, 1);
    const net::Url url = net::parse_url(o.get("url"));
    net::Client client(url.host, url.port);
    auto res = client.get("/v1/jobs/" + std::to_string(id) + "/artifact");
    if (res.status != 200) {
      std::cerr << "error: HTTP " << res.status << ": " << res.body << "\n";
      return 1;
    }
    bytes = std::move(res.body);
    origin = o.get("url") + "/v1/jobs/" + std::to_string(id) + "/artifact";
  }

  // Full decode (not just a header peek): the summary below is only printed
  // for artifacts that are valid end to end.
  const service::Artifact artifact = service::decode_artifact(bytes);
  const auto& r = artifact.result;
  std::cout << "artifact          : " << origin << " (" << bytes.size()
            << " bytes, format v" << artifact.version << ")\n";
  std::cout << "circuit hash      : " << std::hex << std::setfill('0')
            << std::setw(16) << artifact.key.circuit_hash << std::dec
            << std::setfill(' ') << "\n";
  std::cout << "seed              : " << artifact.key.seed << "\n";
  std::cout << "fingerprint       : " << std::hex << std::setfill('0')
            << std::setw(16) << artifact.key.fingerprint << std::dec
            << std::setfill(' ') << "\n";
  std::cout << "name              : " << r.obf.original.name() << "\n";
  std::cout << "depth             : " << r.depth_original << " -> "
            << r.depth_obfuscated << "\n";
  std::cout << "gates             : " << r.gates_original << " -> "
            << r.gates_obfuscated << "\n";
  std::cout << "split widths      : " << r.splits.first.circuit.num_qubits()
            << " / " << r.splits.second.circuit.num_qubits() << "\n";
  std::cout << "accuracy original : " << fmt_double(r.accuracy_original, 3)
            << "\n";
  std::cout << "accuracy restored : " << fmt_double(r.accuracy_restored, 3)
            << "\n";
  std::cout << "TVD obfuscated    : " << fmt_double(r.tvd_obfuscated, 3)
            << "\n";
  std::cout << "TVD restored      : " << fmt_double(r.tvd_restored, 3) << "\n";

  if (o.has("out")) {
    const std::string path = o.get("out");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw InvalidArgument("cannot write " + path);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw Error("fetch: short write to " + path);
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

int cmd_submit(const Options& o) {
  if (!o.has("url")) {
    throw InvalidArgument("submit needs --url http://HOST:PORT");
  }
  const net::Url url = net::parse_url(o.get("url"));
  net::Client client(url.host, url.port);

  // Request body: mirrors the server's submit schema; flag names and
  // defaults match `protect` so the two paths are interchangeable.
  json::Writer w(0);
  w.begin_object();
  if (o.has("benchmark")) {
    w.key("benchmark").value(o.get("benchmark"));
  } else if (o.has("in")) {
    auto circuit = load_circuit_file(o.get("in"));
    w.key("qasm").value(qir::to_qasm(circuit));
    if (circuit.name().empty()) {
      w.key("name").value(
          std::filesystem::path(o.get("in")).stem().string());
    }
  } else {
    throw InvalidArgument("need --benchmark NAME or --in FILE");
  }
  w.key("seed").value(o.get_long("seed", 2025, 0));
  w.key("config").begin_object();
  w.key("shots").value(o.get_long("shots", 1000, 1));
  w.key("max_gates").value(o.get_long("max-gates", 2, 0));
  w.key("alphabet").value(o.get("alphabet", "mixed"));
  if (o.has("gap")) w.key("gap").value(true);
  if (o.has("fuse")) w.key("fuse").value(true);
  // Validate locally before the round-trip (same parser as the server), and
  // only emit the field when given: an absent field and "auto" are the same
  // server-side default, but omitting keeps old-server compatibility.
  if (o.has("backend")) {
    sim::parse_backend_kind(o.get("backend"));
    w.key("backend").value(o.get("backend"));
  }
  w.key("sample_jobs").value(o.get_long("sample-jobs", 0, 0));
  w.end_object();
  w.end_object();

  auto posted = client.post("/v1/jobs", w.str());
  if (posted.status != 202) {
    std::cerr << "error: HTTP " << posted.status << ": " << posted.body
              << "\n";
    return 1;
  }
  const std::uint64_t id = static_cast<std::uint64_t>(
      json::parse(posted.body).at("id").as_int());
  std::cout << "job " << id << " submitted to " << o.get("url") << "\n";

  // Poll until terminal (bounded — a wedged server must fail the command,
  // not hang it), then keep the final (full) document.
  const auto poll_interval =
      std::chrono::milliseconds(o.get_long("poll-ms", 100, 1));
  const long wait_s = o.get_long("wait-s", 600, 1);
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(wait_s);
  net::http::Response res;
  std::string state;
  while (true) {
    res = client.get("/v1/jobs/" + std::to_string(id));
    if (res.status != 200) {
      std::cerr << "error: HTTP " << res.status << ": " << res.body << "\n";
      return 1;
    }
    state = json::parse(res.body).at("state").as_string();
    if (state == "done" || state == "failed" || state == "cancelled") break;
    if (std::chrono::steady_clock::now() >= poll_deadline) {
      std::cerr << "error: job " << id << " still '" << state << "' after "
                << wait_s << "s (--wait-s raises the budget)\n";
      return 1;
    }
    std::this_thread::sleep_for(poll_interval);
  }

  const json::Value outcome = json::parse(res.body);
  if (state != "done") {
    const json::Value& status = outcome.at("status");
    std::cerr << "job " << id << " " << state << " ["
              << status.at("code").as_string() << "]";
    if (const json::Value* message = status.find("message")) {
      std::cerr << ": " << message->as_string();
    }
    std::cerr << "\n";
    return 1;
  }

  const json::Value& r = outcome.at("result");
  std::cout << "name              : " << outcome.at("name").as_string()
            << "\n";
  std::cout << "depth             : " << r.at("depth_original").as_int()
            << " -> " << r.at("depth_obfuscated").as_int() << "\n";
  std::cout << "gates             : " << r.at("gates_original").as_int()
            << " -> " << r.at("gates_obfuscated").as_int() << "\n";
  std::cout << "accuracy original : "
            << fmt_double(r.at("accuracy_original").as_number(), 3) << "\n";
  std::cout << "accuracy restored : "
            << fmt_double(r.at("accuracy_restored").as_number(), 3) << "\n";
  std::cout << "TVD obfuscated    : "
            << fmt_double(r.at("tvd_obfuscated").as_number(), 3) << "\n";
  std::cout << "TVD restored      : "
            << fmt_double(r.at("tvd_restored").as_number(), 3) << "\n";
  if (const json::Value* seconds = outcome.find("seconds")) {
    std::cout << "server time       : " << fmt_double(seconds->as_number(), 3)
              << "s\n";
  }
  if (o.has("trace")) {
    auto traced = client.get("/v1/jobs/" + std::to_string(id) + "/trace");
    if (traced.status == 200) {
      print_trace_document(json::parse(traced.body));
    } else {
      std::cerr << "trace: unavailable (HTTP " << traced.status << ")\n";
    }
  }
  if (o.has("out-json")) {
    write_or_print(res.body, o.get("out-json"));
  }
  const bool ok =
      r.at("depth_obfuscated").as_int() == r.at("depth_original").as_int();
  std::cout << (ok ? "OK: zero depth overhead\n" : "ERROR: depth changed\n");
  return ok ? 0 : 1;
}

int usage() {
  std::cerr << "usage: tetrislock_cli "
               "{info|obfuscate|split|protect|serve|submit|fetch|complexity} "
               "[--flags]\n"
               "       global: --jobs N   (worker threads; also TETRIS_THREADS)\n"
               "       protect: --shots N --sample-jobs N  (trajectory count "
               "+ sampler fan-out)\n"
               "       protect: --fuse  (gate-fused statevector kernels in "
               "the ideal runs)\n"
               "       protect/submit: --backend "
               "auto|statevector|stabilizer  (simulation engine; "
               "auto = stabilizer for wide Clifford circuits)\n"
               "       protect: --cache --out-json FILE  (service result "
               "cache + JSON output)\n"
               "       protect/submit: --trace  (per-stage span summary on "
               "stderr; docs/OBSERVABILITY.md)\n"
               "       protect/serve: --store DIR  (durable artifact store; "
               "warm-starts across restarts)\n"
               "       serve:   --port N --cache  (REST server; port 0 = "
               "ephemeral)\n"
               "       dispatch: --port N --node http://HOST:PORT "
               "[--node ...]  (consistent-hash front-end over serve nodes)\n"
               "       submit:  --url http://HOST:PORT --benchmark NAME  "
               "(protect over HTTP)\n"
               "       fetch:   --url http://HOST:PORT --id N --out FILE  "
               "(download + validate artifact)\n"
               "see the header of tools/tetrislock_cli.cpp for details\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  try {
    const std::set<std::string>* allowed = allowed_flags(cmd);
    if (allowed == nullptr) return usage();
    Options o = parse(argc, argv, 2, cmd, *allowed);
    // --jobs is range-checked once, here, before any pool is built. serve
    // and dispatch size their private pools from the same value, and
    // neither they nor the HTTP clients submit and fetch run anything on
    // the global pool, so only the local subcommands build it.
    if (o.has("jobs")) {
      const auto jobs = static_cast<unsigned>(
          o.get_long("jobs", 0, 1, runtime::ThreadPool::kMaxThreads));
      const bool global_pool = cmd != "serve" && cmd != "dispatch" &&
                               cmd != "submit" && cmd != "fetch";
      if (global_pool) runtime::ThreadPool::set_global_threads(jobs);
    }
    if (cmd == "info") return cmd_info(o);
    if (cmd == "obfuscate") return cmd_obfuscate(o);
    if (cmd == "split") return cmd_split(o);
    if (cmd == "protect") return cmd_protect(o);
    if (cmd == "complexity") return cmd_complexity(o);
    if (cmd == "serve") return cmd_serve(o);
    if (cmd == "dispatch") return cmd_dispatch(o);
    if (cmd == "submit") return cmd_submit(o);
    if (cmd == "fetch") return cmd_fetch(o);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
