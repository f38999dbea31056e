// odrc_perfbench — the end-to-end workloads of the OpenDRC benchmark.
//
//   odrc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --odrc <path to odrc> --deck <deck file> --work <scratch dir>
//                  [--generate 1]
//
// With --generate 1 it only writes the workload's layouts from --seed into
// the scratch directory; run.py runs that step first, in a process of its
// own, so that the measuring process's set-up time holds no generation.
//
// Workloads (README.md has the full description):
//   signoff-par-jpeg    read GDS -> snapshot -> check_deck (par) -> text report
//   serve-edit-aes      `odrc serve` session driven over its socket: seeded
//                       edit -> recheck -> pushed delta, then a windowed query
//
// Every output is checked against ground truth the benchmark computes apart
// from the code path under test (checks.hpp). Progress goes to stderr; the
// last stdout line is one JSON object with the raw measurements, which
// run.py turns into the benchmark's result line.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <spawn.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "db/layout.hpp"
#include "device/device.hpp"
#include "engine/deck_parser.hpp"
#include "engine/engine.hpp"
#include "engine/plan.hpp"
#include "engine/snapshot.hpp"
#include "gdsii/reader.hpp"
#include "gdsii/writer.hpp"
#include "infra/simd.hpp"
#include "infra/trace.hpp"
#include "report/violation_db.hpp"
#include "serve/client.hpp"
#include "serve/edits.hpp"
#include "workload/workload.hpp"

namespace {

using namespace odrc;
using clk = std::chrono::steady_clock;

// Set-up time is measured from here: static initialization runs before main.
const clk::time_point g_process_start = clk::now();

double seconds_since(clk::time_point t) {
  return std::chrono::duration<double>(clk::now() - t).count();
}

double ms_between(clk::time_point a, clk::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string odrc;
  std::string deck;
  std::string work;
  bool generate = false;
};

// What one run hands to run.py.
struct outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< any entry makes the run incorrect
  std::map<std::string, double> metrics;
  std::vector<std::string> trace_files;
  std::map<std::string, double> raw;  ///< inputs run.py needs for trace metrics

  void check(const std::vector<std::string>& found, const std::string& where) {
    for (const std::string& p : found) {
      if (problems.size() < 20) problems.push_back(where + ": " + p);
    }
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_outcome(const outcome& o) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (o.problems.empty() ? "true" : "false")
     << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : o.metrics) {
    os << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  os << "}, \"raw\": {";
  first = true;
  for (const auto& [k, v] : o.raw) {
    os << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  os << "}, \"trace_files\": [";
  for (std::size_t i = 0; i < o.trace_files.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(o.trace_files[i]) << '"';
  }
  os << "], \"problems\": [";
  for (std::size_t i = 0; i < o.problems.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(o.problems[i]) << '"';
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// The generator's seed for a design: the run seed mixed with the design's
// own default, so each seed gives a different but reproducible layout.
std::uint64_t layout_seed(std::uint64_t run_seed, std::uint64_t design_default) {
  std::seed_seq seq{static_cast<std::uint32_t>(run_seed), static_cast<std::uint32_t>(run_seed >> 32),
                    static_cast<std::uint32_t>(design_default)};
  std::uint32_t out[2];
  seq.generate(out, out + 2);
  return (static_cast<std::uint64_t>(out[0]) << 32) | out[1];
}

std::vector<perfbench::site_truth> to_truth(const std::vector<workload::site>& sites) {
  std::vector<perfbench::site_truth> out;
  for (const workload::site& s : sites) {
    out.push_back({std::string(checks::rule_kind_name(s.kind)), s.layer1, s.layer2,
                   {s.marker.x_min, s.marker.y_min, s.marker.x_max, s.marker.y_max}});
  }
  return out;
}

// The generator input for `design`: five injected sites of every kind, and
// the run seed mixed into the design's own seed when one is given.
workload::design_spec spec_of(const std::string& design, double scale,
                              std::optional<std::uint64_t> run_seed) {
  workload::design_spec spec = workload::spec_for(design, scale);
  if (run_seed) spec.seed = layout_seed(*run_seed, spec.seed);
  spec.inject = {5, 5, 5, 5};
  return spec;
}

// The injected sites of a layout, generated again in memory: the measuring
// process reads the GDS that the generation step wrote, and needs the sites
// only to check its outputs.
std::vector<perfbench::site_truth> sites_of(const workload::design_spec& spec) {
  return to_truth(workload::generate(spec).sites);
}

std::vector<std::string> fresh_keys(const db::library& lib, const std::vector<rules::rule>& deck) {
  engine_config cfg;
  cfg.run_mode = engine::mode::sequential;
  drc_engine eng(cfg);
  eng.add_rules(deck);
  const engine::deck_report dr = eng.check_deck(lib);
  report::violation_db db(lib.name());
  for (std::size_t i = 0; i < deck.size(); ++i) db.add(deck[i].name, dr.per_rule[i].violations);
  return db.keys();
}

perfbench::box to_box(const rect& r) { return {r.x_min, r.y_min, r.x_max, r.y_max}; }

// ---------------------------------------------------------------------------
// Signoff workload
// ---------------------------------------------------------------------------

// Design scale of the signoff workload (README.md says why this one).
constexpr double kJpegScale = 0.5;

// Timed untraced signoff runs per run: forty leave ten samples beyond the
// p75 the traced pass reports as their tail.
constexpr std::size_t kMinSignoffRuns = 40;

struct signoff_sample {
  double read_s = 0, snapshot_s = 0, check_s = 0, write_s = 0, total_s = 0;
  double edge_pairs = 0, kernels = 0, bytes_h2d = 0, minor_faults = 0;
};

double minor_faults(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_minflt);
}

// One signoff run, the steps of `odrc check --report=`: read the GDS, parse
// and compile the deck, build the snapshot, check, write the text report.
signoff_sample signoff_once(const std::string& gds, const std::string& deck_path,
                            engine::mode mode, const std::string& report_path,
                            report::violation_db& db_out) {
  signoff_sample s;
  device::context& dev = device::context::instance();
  const std::uint64_t k0 = dev.kernels_launched(), b0 = dev.bytes_h2d();
  const double f0 = minor_faults(RUSAGE_SELF);
  const clk::time_point t0 = clk::now();
  const db::library lib = gdsii::read(gds);
  const clk::time_point t1 = clk::now();
  const std::vector<rules::rule> deck = rules::parse_deck_file(deck_path);
  engine_config cfg;
  cfg.run_mode = mode;
  drc_engine eng(cfg);
  eng.add_rules(deck);
  std::vector<engine::exec_plan> plans;
  plans.reserve(deck.size());
  for (const rules::rule& r : deck) plans.push_back(engine::compile_plan(r));
  const clk::time_point t2 = clk::now();
  engine::layout_snapshot snap(lib);
  const clk::time_point t3 = clk::now();
  const engine::deck_report dr = eng.check_deck(lib, plans, snap);
  const clk::time_point t4 = clk::now();
  report::violation_db db(lib.name());
  for (std::size_t i = 0; i < deck.size(); ++i) db.add(deck[i].name, dr.per_rule[i].violations);
  {
    std::ofstream out(report_path);
    db.write_text(out);
    if (!out.flush()) throw std::runtime_error("cannot write " + report_path);
  }
  const clk::time_point t5 = clk::now();
  s.minor_faults = minor_faults(RUSAGE_SELF) - f0;
  s.read_s = ms_between(t0, t1) / 1000;
  s.snapshot_s = ms_between(t2, t3) / 1000;
  s.check_s = ms_between(t3, t4) / 1000;
  s.write_s = ms_between(t4, t5) / 1000;
  s.total_s = ms_between(t0, t5) / 1000;
  s.edge_pairs = static_cast<double>(dr.total.check_stats.edge_pairs_tested +
                                     dr.total.device_stats.edge_pairs_tested);
  s.kernels = static_cast<double>(dev.kernels_launched() - k0);
  s.bytes_h2d = static_cast<double>(dev.bytes_h2d() - b0);
  db_out = std::move(db);
  return s;
}

// Random query windows over the die and the injected-site strip below it.
rect random_window(std::mt19937_64& rng, const rect& die) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const bool strip = u(rng) < 0.5;
  const rect area = strip ? rect{0, -450, 20000, -50} : die;
  const coord_t w = static_cast<coord_t>(200 + u(rng) * 2800);
  const coord_t h = static_cast<coord_t>(200 + u(rng) * 2800);
  const coord_t x = static_cast<coord_t>(area.x_min + u(rng) * std::max<double>(1, area.width() - w));
  const coord_t y = static_cast<coord_t>(area.y_min + u(rng) * std::max<double>(1, area.height() - h));
  return {x, y, static_cast<coord_t>(x + w), static_cast<coord_t>(y + h)};
}

// Windowed lookups over the run's violation store, each answer checked
// against a scan of the stored keys. Returns milliseconds per lookup, one
// sample per batch.
std::vector<double> query_report(const report::violation_db& db, const rect& die,
                                 std::mt19937_64& rng, outcome& o) {
  constexpr int kBatches = 8, kPerBatch = 64;
  const std::vector<std::string> stored = db.keys();
  std::vector<double> ms;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<rect> windows;
    for (int q = 0; q < kPerBatch; ++q) windows.push_back(random_window(rng, die));
    std::vector<std::vector<std::size_t>> hits(kPerBatch);
    // One batch is one sample: a single lookup is too short to time alone.
    const clk::time_point t0 = clk::now();
    for (int q = 0; q < kPerBatch; ++q) hits[q] = db.in_window(windows[q]);
    ms.push_back(ms_between(t0, clk::now()) / kPerBatch);
    for (int q = 0; q < kPerBatch; ++q) {
      std::vector<std::string> got;
      for (std::size_t i : hits[q]) got.push_back(db.entries()[i].key);
      o.check(perfbench::check_query(got, to_box(windows[q]), stored), "report query");
    }
  }
  return ms;
}

// Peak RSS of `odrc check` runs, one child process each (`wait4`): the
// signoff as users run it, without the benchmark's own data in the process.
// Each report is checked like the in-process ones; exit status 1 ("violations
// found") is success. Returns the median peak in MB.
double cli_peak_rss_mb(const options& opt, const std::string& gds, engine::mode mode,
                       const std::vector<perfbench::site_truth>& sites,
                       const std::vector<perfbench::deck_rule>& deck, outcome& o) {
  constexpr int kRuns = 3;
  const std::string report_path = opt.work + "/cli_report.txt";
  const std::string log = opt.work + "/cli.log";
  std::vector<std::string> args{opt.odrc, "check", gds, opt.deck,
                                mode == engine::mode::parallel ? "--mode=par" : "--mode=seq",
                                "--report=" + report_path};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<double> mb;
  for (int i = 0; i < kRuns; ++i) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    pid_t pid = 0;
    const int err = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (err != 0) throw std::runtime_error("cannot execute " + opt.odrc);
    int st = 0;
    rusage ru{};
    ::wait4(pid, &st, 0, &ru);
    if (!WIFEXITED(st) || (WEXITSTATUS(st) != 0 && WEXITSTATUS(st) != 1)) {
      throw std::runtime_error("odrc check failed (status " + std::to_string(st) + "), see " + log);
    }
    mb.push_back(static_cast<double>(ru.ru_maxrss) / 1024.0);
    std::vector<std::string> parse_problems;
    const auto lines = perfbench::parse_report_text(read_file(report_path), parse_problems);
    o.check(parse_problems, "odrc check report");
    o.check(perfbench::check_signoff(lines, sites, deck), "odrc check");
  }
  return median(mb);
}

outcome run_signoff(const options& opt, const std::string& design, double scale,
                    engine::mode mode) {
  outcome o;
  const std::string gds = opt.work + "/" + design + ".gds";
  const std::string report_path = opt.work + "/" + design + "_report.txt";
  std::vector<signoff_sample> untraced, traced;

  // Set-up: from the process's start to the end of the first, cold signoff
  // run. The layout was written by the generation step, another process.
  report::violation_db cold_db;
  const signoff_sample cold = signoff_once(gds, opt.deck, mode, report_path, cold_db);
  const double setup_s = seconds_since(g_process_start);

  // Untimed: the ground truth, and a check of the cold run's report.
  const workload::design_spec spec = spec_of(design, scale, opt.seed);
  const std::vector<perfbench::site_truth> sites = sites_of(spec);
  const std::vector<perfbench::deck_rule> deck = perfbench::parse_deck_text(read_file(opt.deck));
  const rect die{0, 0, static_cast<coord_t>(spec.cols * workload::tech::cpp),
                 static_cast<coord_t>(spec.rows * workload::tech::cell_height)};
  std::mt19937_64 rng(opt.seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<double> query_ms;
  auto verify = [&](const report::violation_db& db) {
    std::vector<std::string> parse_problems;
    const auto lines = perfbench::parse_report_text(read_file(report_path), parse_problems);
    o.check(parse_problems, "report");
    o.check(perfbench::check_signoff(lines, sites, deck), "signoff");
    const std::vector<double> q = query_report(db, die, rng, o);
    query_ms.insert(query_ms.end(), q.begin(), q.end());
  };
  std::fprintf(stderr, "set-up: %.4fs, cold signoff %.4fs\n", setup_s, cold.total_s);
  verify(cold_db);
  query_ms.clear();

  auto one = [&](std::vector<signoff_sample>& into) {
    report::violation_db db;
    const signoff_sample& s = into.emplace_back(signoff_once(gds, opt.deck, mode, report_path, db));
    std::fprintf(stderr, "signoff %.4fs: read %.4f snapshot %.4f check %.4f write %.4f\n",
                 s.total_s, s.read_s, s.snapshot_s, s.check_s, s.write_s);
    verify(db);
  };

  const clk::time_point loop_start = clk::now();
  const double untraced_budget = opt.trace ? opt.seconds / 3 : opt.seconds;
  while (untraced.size() < kMinSignoffRuns || seconds_since(loop_start) < untraced_budget) {
    one(untraced);
  }
  if (opt.trace) {
    trace::recorder::instance().enable();
    // Three traced runs (~2 MB of trace).
    while (traced.size() < 3) one(traced);
    trace::recorder::instance().disable();
    const std::string tf = opt.work + "/trace_" + design + ".json";
    std::ofstream out(tf);
    trace::recorder::instance().write_chrome_json(out);
    o.trace_files.push_back(tf);
  }

  std::vector<double> total_ms;
  for (const signoff_sample& s : untraced) total_ms.push_back(s.total_s * 1000);
  o.attempted = untraced.size() + traced.size();
  if (!opt.trace) {
    o.metrics["op_p50_ms"] = median(total_ms);
    o.metrics["setup_s"] = setup_s;
    o.metrics["peak_rss_mb"] = cli_peak_rss_mb(opt, gds, mode, sites, deck, o);
    return o;
  }
  std::vector<signoff_sample> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  auto column = [&](double signoff_sample::*f) {
    std::vector<double> v;
    for (const signoff_sample& s : all) v.push_back(s.*f);
    return v;
  };
  std::vector<double> traced_ms;
  for (const signoff_sample& s : traced) traced_ms.push_back(s.total_s * 1000);
  o.metrics["gdsii.read_s"] = median(column(&signoff_sample::read_s));
  o.metrics["engine.snapshot_s"] = median(column(&signoff_sample::snapshot_s));
  o.metrics["engine.check_s"] = median(column(&signoff_sample::check_s));
  o.metrics["report.write_s"] = median(column(&signoff_sample::write_s));
  o.metrics["sweep.edge_pairs_tested"] = mean(column(&signoff_sample::edge_pairs));
  o.metrics["device.kernels_launched"] = mean(column(&signoff_sample::kernels));
  o.metrics["device.bytes_h2d"] = mean(column(&signoff_sample::bytes_h2d));
  o.metrics["process.minor_faults"] = mean(column(&signoff_sample::minor_faults));
  o.metrics["trace.overhead_s"] = (median(traced_ms) - median(total_ms)) / 1000;
  o.metrics["op_tail_ms"] = quantile(total_ms, 0.75);
  o.metrics["query_p50_ms"] = median(query_ms);
  return o;
}

// ---------------------------------------------------------------------------
// Serve workload
// ---------------------------------------------------------------------------

constexpr const char* kAllWindow = "-1000000000 -1000000000 1000000000 1000000000";

std::vector<std::string> response_keys(const serve::frame& f) {
  std::vector<std::string> keys;
  std::istringstream in(f.payload);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("v ", 0) == 0) keys.push_back(line.substr(2));
  }
  return keys;
}

// The number after `word` in a status line (0 when absent).
double status_field(const std::string& status, const std::string& word) {
  std::istringstream in(status);
  std::string w;
  while (in >> w) {
    if (w == word) {
      double v = 0;
      in >> v;
      return v;
    }
  }
  return 0;
}

// An `odrc serve` child process with its request and subscriber links.
class server_process {
 public:
  server_process(const options& opt, const std::string& name, const std::string& gds,
                 const std::string& trace_path)
      : socket_(opt.work + "/" + name + ".sock") {
    ::unlink(socket_.c_str());
    // One request worker: the client is a closed loop with one request in
    // flight. With the default two, each worker that served a recheck keeps
    // its own malloc arena of ~7 MB, and whether one or both did varies from
    // run to run, so the peak RSS flips between ~15 and ~21 MB.
    std::vector<std::string> args{opt.odrc,  "serve",      gds, opt.deck, "--socket=" + socket_,
                                  "--workers=1", "--mode=par"};
    if (!trace_path.empty()) args.push_back("--trace=" + trace_path);
    // The child may only make async-signal-safe calls (this process has
    // threads), so every buffer is built here, before fork.
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = opt.work + "/" + name + ".log";
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log_fd < 0) throw std::runtime_error("cannot write " + log);
    pid_ = ::fork();
    if (pid_ == 0) {
      // The server must not outlive the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::execve(argv[0], argv.data(), environ);
      static const char msg[] = "cannot execute odrc\n";
      (void)!::write(2, msg, sizeof msg - 1);
      _exit(127);
    }
    ::close(log_fd);
    if (pid_ < 0) throw std::runtime_error("fork failed");
  }

  ~server_process() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int st = 0;
      ::waitpid(pid_, &st, 0);
    }
  }

  server_process(const server_process&) = delete;
  server_process& operator=(const server_process&) = delete;

  // Connect once the server answers ping (it parses the layout first).
  void connect() {
    const clk::time_point t0 = clk::now();
    while (true) {
      int st = 0;
      if (::waitpid(pid_, &st, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("odrc serve exited during start-up (status " +
                                 std::to_string(st) + ")");
      }
      try {
        req.connect(socket_);
        if (serve::client::ok(req.request(serve::msg_type::ping, 0))) break;
      } catch (const std::exception&) {
        req.close();
      }
      if (seconds_since(t0) > 60) throw std::runtime_error("odrc serve did not come up");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    sub.connect(socket_);
  }

  // Orderly shutdown; returns the child's resource usage.
  rusage shutdown() {
    req.request(serve::msg_type::shutdown, 0);
    req.close();
    sub.close();
    int st = 0;
    rusage ru{};
    ::wait4(pid_, &st, 0, &ru);
    pid_ = -1;
    if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) throw std::runtime_error("odrc serve failed");
    return ru;
  }

  serve::client req;
  serve::client sub;

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

serve::frame must_ok(serve::client& c, serve::msg_type t, std::uint32_t session,
                     const std::string& payload = {}) {
  serve::frame f = c.request(t, session, payload);
  if (!serve::client::ok(f)) {
    throw std::runtime_error("request failed: " + serve::client::status_line(f));
  }
  return f;
}

// A seeded edit and the edit that undoes it.
struct edit_pair {
  std::string apply;
  std::string revert;
};

// Seeded edits on the aes layout: M1 specks, M2 and M3 wire moves, and
// instance moves inside the AREF'd block.
class edit_source {
 public:
  edit_source(const db::library& lib, std::uint64_t seed) : rng_(seed) {
    const db::cell_id top = *lib.find("aes_top");
    const db::cell_id block = *lib.find("aes_block");
    block_refs_ = lib.at(block).refs().size();
    std::map<db::layer_t, std::size_t> count;
    for (const db::polygon_elem& p : lib.at(top).polygons()) {
      const std::size_t idx = count[p.layer]++;
      if (p.poly.mbr().y_min < 0) continue;  // injected-site strip and scrap row
      if (p.layer == workload::layers::M2) m2_.push_back(idx);
      if (p.layer == workload::layers::M3) m3_.push_back(idx);
    }
    m1_top_ = count[workload::layers::M1];
    const workload::design_spec spec = workload::spec_for("aes");
    die_ = {0, 0, static_cast<coord_t>(spec.cols * workload::tech::cpp),
            static_cast<coord_t>(spec.rows * workload::tech::cell_height)};
  }

  edit_pair next() {
    std::uniform_int_distribution<int> kind(0, 3);
    std::uniform_int_distribution<int> sign(0, 1);
    const int s = sign(rng_) ? 1 : -1;
    std::ostringstream a, r;
    switch (kind(rng_)) {
      case 0: {
        std::uniform_int_distribution<coord_t> x(0, die_.x_max - 30), y(0, die_.y_max - 30),
            side(8, 24);
        const coord_t x0 = x(rng_), y0 = y(rng_);
        a << "add_poly aes_top 19 " << x0 << ' ' << y0 << ' ' << x0 + side(rng_) << ' '
          << y0 + side(rng_);
        r << "remove_poly aes_top 19 " << m1_top_;
        break;
      }
      case 1: {
        const std::size_t i = pick(m2_);
        const bool across = sign(rng_) == 1;
        const coord_t d = std::uniform_int_distribution<coord_t>(1, 3)(rng_) * (across ? 2 : 10) * s;
        const coord_t dx = across ? 0 : d, dy = across ? d : 0;
        a << "move_poly aes_top 20 " << i << ' ' << dx << ' ' << dy;
        r << "move_poly aes_top 20 " << i << ' ' << -dx << ' ' << -dy;
        break;
      }
      case 2: {
        const std::size_t i = pick(m3_);
        const coord_t dx = std::uniform_int_distribution<coord_t>(1, 3)(rng_) * 2 * s;
        a << "move_poly aes_top 30 " << i << ' ' << dx << " 0";
        r << "move_poly aes_top 30 " << i << ' ' << -dx << " 0";
        break;
      }
      default: {
        const std::size_t i = std::uniform_int_distribution<std::size_t>(0, block_refs_ - 1)(rng_);
        const coord_t dx = std::uniform_int_distribution<coord_t>(1, 3)(rng_) * 10 * s;
        a << "move_inst aes_block " << i << ' ' << dx << " 0";
        r << "move_inst aes_block " << i << ' ' << -dx << " 0";
        break;
      }
    }
    return {a.str(), r.str()};
  }

  [[nodiscard]] const rect& die() const { return die_; }
  std::mt19937_64& rng() { return rng_; }

 private:
  std::size_t pick(const std::vector<std::size_t>& v) {
    return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(rng_)];
  }

  std::mt19937_64 rng_;
  std::vector<std::size_t> m2_, m3_;
  std::size_t m1_top_ = 0;
  std::size_t block_refs_ = 0;
  rect die_;
};

// The layout copy the benchmark edits on its own side, for fresh full checks.
struct shadow_layout {
  db::library lib;
  std::optional<engine::layout_snapshot> snap;

  explicit shadow_layout(const std::string& gds) : lib(gdsii::read(gds)) { snap.emplace(lib); }

  void apply(const std::string& script) {
    const std::vector<serve::edit_op> ops = serve::parse_edit_script(script);
    (void)serve::apply_edits(lib, *snap, ops);
  }
};

// One repro of the `check_region` fault (README.md): two edit steps, each
// followed by a recheck. The first recheck is right; the second purges
// entries of the first whose long edge touches its window and re-finds only
// those with a partner inside the window.
struct fault_case {
  std::string first, second, revert;
  std::vector<std::string> edited;  ///< fresh check after both steps
};

// The fault cases, kept in every round on an `odrc serve` of its own, so
// that the measured server holds the seeded session alone. The layout does
// not depend on the seed.
struct fault_server {
  std::string gds;
  std::vector<std::string> baseline;  ///< fresh check of the layout as generated
  std::vector<fault_case> cases;
  std::optional<server_process> server;

  // One operation; false when the store misses what a fresh check reports.
  bool run(const fault_case& c, outcome& o) {
    serve::client& cl = server->req;
    must_ok(cl, serve::msg_type::edit, 1, c.first);
    must_ok(cl, serve::msg_type::recheck, 1);
    must_ok(cl, serve::msg_type::edit, 1, c.second);
    must_ok(cl, serve::msg_type::recheck, 1);
    const bool ok = perfbench::check_keys_equal(stored(), c.edited, "fault").empty();
    // Untimed restore: both steps undone and a full check.
    must_ok(cl, serve::msg_type::edit, 1, c.revert);
    must_ok(cl, serve::msg_type::check, 1);
    o.check(perfbench::check_keys_equal(stored(), baseline, "fault session resync"), "serve");
    return ok;
  }

  std::vector<std::string> stored() {
    return response_keys(
        must_ok(server->req, serve::msg_type::query, 1, std::string(kAllWindow) + " keys"));
  }
};

struct serve_samples {
  std::vector<double> op_ms, query_ms, rtt_edit_ms, rtt_recheck_ms, push_lag_ms;
  std::vector<double> windows, purged, inserted, peak_rss_mb;
  double setup_s = 0, open_s = 0, minor_faults = 0;
  std::size_t ops = 0;
};

// What outlives one server process: the ground truth, the benchmark's own
// copy of the layout and the seeded edit stream. Built once the first server
// is up, so none of it is part of the set-up time.
struct serve_truth {
  std::vector<std::string> base;  ///< fresh check of the layout as generated
  fault_server fault;
  std::optional<shadow_layout> shadow;
  std::optional<edit_source> edits;
};

constexpr int kPairsPerRound = 10;  // 20 seeded operations, then the fault cases
// A run is a fixed number of whole rounds, three per server process, so
// `attempted` and `failed` are the same on every run with the same --seconds.
// At least four servers leave 240 seeded operations, ten samples beyond the
// p95. Peak RSS is the median over the servers, an odd number of them in the
// untraced pass.
constexpr int kRoundsPerLife = 3, kMinLifetimes = 4;
// The traced pass adds one server with three rounds (its trace grows by
// ~0.4 MB per operation).
constexpr int kTracedRounds = 3;

// One server process: set-up, then `rounds` whole rounds.
void serve_phase(const options& opt, const std::string& gds, const std::vector<rules::rule>& deck,
                 serve_truth& truth, const std::function<void()>& prepare_truth,
                 const std::string& trace_path, int rounds, serve_samples& out, outcome& o) {
  const clk::time_point t_spawn = clk::now();
  server_process srv(opt, "serve", gds, trace_path);
  srv.connect();
  const double up_s = seconds_since(t_spawn);
  must_ok(srv.req, serve::msg_type::check, 1);
  const double open_s = seconds_since(t_spawn);
  must_ok(srv.sub, serve::msg_type::subscribe, 1);
  if (out.setup_s == 0) {
    out.setup_s = seconds_since(g_process_start);
    out.open_s = open_s;
  }
  std::fprintf(stderr, "server up after %.4fs, checked after %.4fs\n", up_s, open_s);

  // Untimed from here on: the starting store, the fault session.
  if (!truth.shadow) prepare_truth();
  std::vector<std::string> stored = response_keys(must_ok(srv.req, serve::msg_type::query, 1,
                                                          std::string(kAllWindow) + " keys"));
  o.check(perfbench::check_keys_equal(stored, truth.base, "initial store"), "serve");
  perfbench::delta_replay replay(stored);
  shadow_layout& shadow = *truth.shadow;
  edit_source& edits = *truth.edits;

  // Every recheck and full check pushes one delta to the subscriber.
  auto replay_delta = [&](const std::optional<serve::frame>& f, const std::string& where) {
    const std::optional<perfbench::delta> d =
        f ? perfbench::parse_delta(f->payload) : std::nullopt;
    o.check(d ? replay.apply(*d) : std::vector<std::string>{"no well-formed delta pushed"}, where);
  };

  // One timed operation on the seeded session; returns false when the stored
  // keys disagree with a fresh check of the shadow copy.
  auto operation = [&](const std::string& script, bool reverting) {
    const clk::time_point t0 = clk::now();
    must_ok(srv.req, serve::msg_type::edit, 1, script);
    const clk::time_point t1 = clk::now();
    const serve::frame rf = must_ok(srv.req, serve::msg_type::recheck, 1);
    const clk::time_point t2 = clk::now();
    const std::optional<serve::frame> pf = srv.sub.wait_push(30000);
    const clk::time_point t3 = clk::now();
    out.op_ms.push_back(ms_between(t0, t3));
    out.rtt_edit_ms.push_back(ms_between(t0, t1));
    out.rtt_recheck_ms.push_back(ms_between(t1, t2));
    out.push_lag_ms.push_back(ms_between(t2, t3));
    const std::string status = serve::client::status_line(rf);
    out.windows.push_back(status_field(status, "windows"));
    out.purged.push_back(status_field(status, "purged"));
    out.inserted.push_back(status_field(status, "inserted"));

    const rect w = random_window(edits.rng(), edits.die());
    std::ostringstream qs;
    qs << w.x_min << ' ' << w.y_min << ' ' << w.x_max << ' ' << w.y_max << " keys";
    const clk::time_point q0 = clk::now();
    const serve::frame qf = must_ok(srv.req, serve::msg_type::query, 1, qs.str());
    out.query_ms.push_back(ms_between(q0, clk::now()));
    ++out.ops;

    // Verification (untimed).
    replay_delta(pf, "serve delta after: " + script);
    stored = response_keys(
        must_ok(srv.req, serve::msg_type::query, 1, std::string(kAllWindow) + " keys"));
    o.check(perfbench::check_query(response_keys(qf), to_box(w), stored), "serve query");
    o.check(perfbench::check_keys_equal(replay.keys(), stored, "replayed deltas"), "serve delta");
    shadow.apply(script);
    const std::vector<std::string> want = reverting ? truth.base : fresh_keys(shadow.lib, deck);
    return perfbench::check_keys_equal(stored, want, "stored keys").empty();
  };

  // A failed recheck is resynced by an untimed full check.
  auto resync = [&](const std::vector<std::string>& want) {
    must_ok(srv.req, serve::msg_type::check, 1);
    replay_delta(srv.sub.wait_push(30000), "serve resync delta");
    stored = response_keys(
        must_ok(srv.req, serve::msg_type::query, 1, std::string(kAllWindow) + " keys"));
    o.check(perfbench::check_keys_equal(stored, want, "store after resync"), "serve");
  };

  for (int round = 0; round < rounds; ++round) {
    for (int p = 0; p < kPairsPerRound; ++p) {
      const edit_pair e = edits.next();
      o.attempted += 2;
      if (!operation(e.apply, false)) {
        ++o.failed;
        resync(fresh_keys(shadow.lib, deck));
      }
      if (!operation(e.revert, true)) {
        ++o.failed;
        resync(truth.base);
      }
    }
    // The fault cases: one operation each, on their own server.
    for (const fault_case& c : truth.fault.cases) {
      ++o.attempted;
      if (!truth.fault.run(c, o)) ++o.failed;
    }
  }
  const rusage ru = srv.shutdown();
  out.peak_rss_mb.push_back(static_cast<double>(ru.ru_maxrss) / 1024.0);
  std::fprintf(stderr, "server peak RSS %.2f MB\n", out.peak_rss_mb.back());
  out.minor_faults += static_cast<double>(ru.ru_minflt);
}

outcome run_serve(const options& opt) {
  outcome o;
  const std::string gds = opt.work + "/aes.gds";
  const std::vector<rules::rule> deck = rules::parse_deck_file(opt.deck);

  serve_truth truth;
  truth.fault.gds = opt.work + "/ibex_fault.gds";
  const std::function<void()> prepare_truth = [&]() {
    truth.base = fresh_keys(gdsii::read(gds), deck);
    fault_server& fault = truth.fault;
    const db::library lib = gdsii::read(fault.gds);
    fault.baseline = fresh_keys(lib, deck);
    const std::size_t m3 = static_cast<std::size_t>(std::count_if(
        lib.at(*lib.find("ibex_top")).polygons().begin(),
        lib.at(*lib.find("ibex_top")).polygons().end(),
        [](const db::polygon_elem& p) { return p.layer == workload::layers::M3; }));
    fault.cases = {
        // Shift M3 wire 20, then nudge M2 wire 0, which crosses it: 13 of the
        // 18 V2.M3.EN.1 entries along the shifted wire are lost.
        {"move_poly ibex_top 30 20 4 0", "move_poly ibex_top 20 0 2 0",
         "move_poly ibex_top 20 0 -2 0\nmove_poly ibex_top 30 20 -4 0", {}},
        // A speck 10 nm beside the die-high M3 wire at x = 2610, then a second
        // one 1350 nm further along it: the first speck's 3 M3.S.1 entries
        // are lost.
        {"add_poly ibex_top 30 2620 675 2660 715", "add_poly ibex_top 30 2620 2025 2660 2065",
         "remove_poly ibex_top 30 " + std::to_string(m3 + 1) + "\nremove_poly ibex_top 30 " +
             std::to_string(m3),
         {}},
    };
    for (fault_case& c : fault.cases) {
      shadow_layout s(fault.gds);
      s.apply(c.first + "\n" + c.second);
      c.edited = fresh_keys(s.lib, deck);
    }
    fault.server.emplace(opt, "fault", fault.gds, "");
    fault.server->connect();
    must_ok(fault.server->req, serve::msg_type::check, 1);
    truth.shadow.emplace(gds);
    truth.edits.emplace(truth.shadow->lib, opt.seed * 0xD1B54A32D192ED03ull + 11);
  };

  serve_samples untraced, traced;
  const int lifetimes =
      opt.trace ? kMinLifetimes
                : std::max(kMinLifetimes + 1, 2 * static_cast<int>(std::lround(opt.seconds / 7.5)) + 1);
  for (int life = 0; life < lifetimes; ++life) {
    serve_phase(opt, gds, deck, truth, prepare_truth, "", kRoundsPerLife, untraced, o);
  }
  if (!opt.trace) {
    o.metrics["op_p50_ms"] = median(untraced.op_ms);
    o.metrics["setup_s"] = untraced.setup_s;
    o.metrics["peak_rss_mb"] = median(untraced.peak_rss_mb);
    return o;
  }
  const std::string tf = opt.work + "/trace_serve.json";
  serve_phase(opt, gds, deck, truth, prepare_truth, tf, kTracedRounds, traced, o);
  o.trace_files.push_back(tf);
  o.metrics["serve.open_s"] = untraced.open_s;
  // The servers' faults over their whole lives, set-up included, per operation.
  o.metrics["process.minor_faults"] = untraced.minor_faults / static_cast<double>(untraced.ops);
  o.metrics["op_tail_ms"] = quantile(untraced.op_ms, 0.95);
  o.metrics["query_p50_ms"] = median(untraced.query_ms);
  o.metrics["subs.push_lag_ms"] = median(traced.push_lag_ms);
  o.metrics["serve.windows_per_recheck"] = mean(traced.windows);
  o.metrics["serve.purged_per_recheck"] = mean(traced.purged);
  o.metrics["serve.inserted_per_recheck"] = mean(traced.inserted);
  o.metrics["trace.overhead_s"] = (median(traced.op_ms) - median(untraced.op_ms)) / 1000;
  {
    const clk::time_point t0 = clk::now();
    const db::library lib = gdsii::read(gds);
    o.metrics["gdsii.read_s"] = seconds_since(t0);
  }
  o.raw["rtt_edit_p50_ms"] = median(traced.rtt_edit_ms);
  o.raw["rtt_recheck_p50_ms"] = median(traced.rtt_recheck_ms);
  return o;
}

// The generation step, a process of its own: writes the workload's layouts
// from --seed, so that generating them is no part of the measured set-up.
void generate_inputs(const options& opt) {
  auto write = [&](const std::string& design, double scale, std::optional<std::uint64_t> seed,
                   const std::string& name) {
    gdsii::write(workload::generate(spec_of(design, scale, seed)).lib, opt.work + "/" + name);
  };
  if (opt.workload == "signoff-par-jpeg") {
    write("jpeg", kJpegScale, opt.seed, "jpeg.gds");
  } else {
    write("aes", 1.0, opt.seed, "aes.gds");
    // The fault cases' layout does not depend on the seed.
    write("ibex", 1.0, std::nullopt, "ibex_fault.gds");
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: odrc_perfbench --workload <signoff-par-jpeg|serve-edit-aes> --seed N "
               "--seconds S --trace 0|1 --odrc PATH --deck PATH --work DIR [--generate 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::stoull(v);
    else if (k == "--seconds") opt.seconds = std::stod(v);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--odrc") opt.odrc = v;
    else if (k == "--deck") opt.deck = v;
    else if (k == "--work") opt.work = v;
    else if (k == "--generate") opt.generate = v == "1";
    else return usage();
  }
  if (opt.odrc.empty() || opt.deck.empty() || opt.work.empty()) return usage();
  const bool known = opt.workload == "signoff-par-jpeg" || opt.workload == "serve-edit-aes";
  if (!known) return usage();
  try {
    if (opt.generate) {
      generate_inputs(opt);
      return 0;
    }
    std::fprintf(stderr, "simd tier %s\n", simd::tier_name(simd::active()));
    outcome o;
    if (opt.workload == "signoff-par-jpeg") {
      o = run_signoff(opt, "jpeg", kJpegScale, engine::mode::parallel);
    } else {
      o = run_serve(opt);
    }
    o.raw["simd_avx2"] = simd::active() == simd::tier::avx2 ? 1 : 0;
    print_outcome(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "odrc_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
