// Self-test of the benchmark's output checks: each check passes on a real,
// correct output and fails on that output with one deliberate corruption.
//
//   perfbench_selftest <deck file>      (run.py --self-test runs it)
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "engine/deck_parser.hpp"
#include "engine/engine.hpp"
#include "report/violation_db.hpp"
#include "workload/workload.hpp"

namespace {

using namespace odrc;

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string s;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) s.append(buf, n);
  std::fclose(f);
  return s;
}

// Rebuild a text report from parsed lines (the checks read only these fields).
std::string render(const std::vector<perfbench::report_line>& lines) {
  std::ostringstream os;
  os << "# total: " << lines.size() << "\n";
  for (const auto& l : lines) {
    os << l.rule << " x L0 [" << l.marker.x1 << ',' << l.marker.y1 << " .. " << l.marker.x2 << ','
       << l.marker.y2 << "] measured=0\n";
  }
  return os.str();
}

bool signoff_clean(const std::string& report, const std::vector<perfbench::site_truth>& sites,
                   const std::vector<perfbench::deck_rule>& deck) {
  std::vector<std::string> problems;
  const auto lines = perfbench::parse_report_text(report, problems);
  return problems.empty() && perfbench::check_signoff(lines, sites, deck).empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <deck file>\n");
    return 2;
  }
  const std::string deck_text = read_file(argv[1]);
  const std::vector<perfbench::deck_rule> deck = perfbench::parse_deck_text(deck_text);
  const std::vector<rules::rule> rules = rules::parse_deck(deck_text);

  // A real signoff output on a small generated design.
  workload::design_spec spec = workload::spec_for("uart", 0.5);
  spec.inject = {1, 1, 1, 1};
  const workload::generated g = workload::generate(spec);
  std::vector<perfbench::site_truth> sites;
  for (const workload::site& s : g.sites) {
    sites.push_back({std::string(checks::rule_kind_name(s.kind)), s.layer1, s.layer2,
                     {s.marker.x_min, s.marker.y_min, s.marker.x_max, s.marker.y_max}});
  }
  drc_engine eng;
  eng.add_rules(rules);
  const engine::deck_report dr = eng.check_deck(g.lib);
  report::violation_db db(g.lib.name());
  for (std::size_t i = 0; i < rules.size(); ++i) db.add(rules[i].name, dr.per_rule[i].violations);
  std::ostringstream report;
  db.write_text(report);

  std::vector<std::string> parse_problems;
  const std::vector<perfbench::report_line> lines =
      perfbench::parse_report_text(report.str(), parse_problems);
  expect(parse_problems.empty() && !lines.empty(), "real report parses");
  expect(signoff_clean(report.str(), sites, deck), "signoff check passes on the real report");

  // Dropped site violation: remove every line of the first site's rule
  // inside its marker.
  {
    const std::string rule = perfbench::rule_for_site(sites.front(), deck);
    std::vector<perfbench::report_line> dropped;
    for (const auto& l : lines) {
      if (!(l.rule == rule && sites.front().marker.contains(l.marker))) dropped.push_back(l);
    }
    expect(dropped.size() < lines.size() && !signoff_clean(render(dropped), sites, deck),
           "signoff check fails on a dropped site violation");
  }
  // Stray violation inside the die, outside the injected-site strip.
  {
    std::vector<perfbench::report_line> stray = lines;
    stray.push_back({"M1.S.1", {100, 100, 110, 118}});
    expect(!signoff_clean(render(stray), sites, deck),
           "signoff check fails on a stray violation outside the strip");
  }

  // Stored keys: one altered key.
  const std::vector<std::string> keys = db.keys();
  expect(perfbench::check_keys_equal(keys, keys, "keys").empty(), "key check passes on equal sets");
  {
    std::vector<std::string> altered = keys;
    altered[altered.size() / 2].back() ^= 1;
    expect(!perfbench::check_keys_equal(altered, keys, "keys").empty(),
           "key check fails on one altered stored key");
  }

  // Deltas: three frames that remove two keys and add one back.
  {
    const std::vector<perfbench::delta> frames = {
        {0, false, {keys[0], keys[1]}, {}},
        {1, false, {}, {keys[0]}},
        {2, false, {}, {}},
    };
    std::vector<std::string> final_keys(keys.begin() + 1, keys.end());
    final_keys.front() = keys[0];
    perfbench::delta_replay all(keys);
    bool clean = true;
    for (const auto& f : frames) clean = clean && all.apply(f).empty();
    expect(clean && perfbench::check_keys_equal(all.keys(), final_keys, "replay").empty(),
           "delta replay reproduces the stored keys");
    perfbench::delta_replay dropped(keys);
    bool flagged = !dropped.apply(frames[0]).empty() || !dropped.apply(frames[2]).empty();
    flagged = flagged || !perfbench::check_keys_equal(dropped.keys(), final_keys, "replay").empty();
    expect(flagged, "delta replay fails on one dropped delta frame");

    const std::string payload = "delta sub 3 seq 1 fixed 1 new 1 gap 0\nfixed " + keys[0] +
                                "\nnew " + keys[1];
    const auto d = perfbench::parse_delta(payload);
    expect(d && d->seq == 1 && d->fixed.size() == 1 && d->added.size() == 1,
           "delta frame parses");
  }

  // Query: one hit missing from an answer.
  {
    const perfbench::box all{-1000000000, -1000000000, 1000000000, 1000000000};
    const std::optional<perfbench::box> b = perfbench::key_box(keys[0]);
    expect(b && perfbench::check_query(keys, all, keys).empty(), "query check passes on a scan");
    std::vector<std::string> hits;
    for (const std::string& k : keys) {
      if (perfbench::key_box(k)->overlaps(*b)) hits.push_back(k);
    }
    expect(perfbench::check_query(hits, *b, keys).empty(), "query check passes on a window");
    hits.pop_back();
    expect(!perfbench::check_query(hits, *b, keys).empty(),
           "query check fails on one hit missing from a query");
  }

  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
