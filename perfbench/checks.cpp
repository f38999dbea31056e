#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

// "key=value" -> value as int, or -1 when the token has another key.
int int_field(const std::string& tok, const char* key) {
  const std::string prefix = std::string(key) + "=";
  if (tok.rfind(prefix, 0) != 0) return -1;
  return std::atoi(tok.c_str() + prefix.size());
}

bool parse_four(const std::string& s, long long v[4]) {
  return std::sscanf(s.c_str(), "%lld,%lld,%lld,%lld", &v[0], &v[1], &v[2], &v[3]) == 4;
}

std::vector<std::string> sorted_unique(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::string show(const box& b) {
  std::ostringstream os;
  os << '[' << b.x1 << ',' << b.y1 << " .. " << b.x2 << ',' << b.y2 << ']';
  return os.str();
}

}  // namespace

std::vector<deck_rule> parse_deck_text(const std::string& text) {
  std::vector<deck_rule> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string word;
    deck_rule r;
    if (!(ls >> word) || word != "rule" || !(ls >> r.name >> r.kind)) continue;
    std::string tok;
    while (ls >> tok) {
      if (int v = int_field(tok, "layer"); v >= 0) r.layer = v;
      if (int v = int_field(tok, "inner"); v >= 0) r.inner = v;
      if (int v = int_field(tok, "outer"); v >= 0) r.outer = v;
    }
    out.push_back(r);
  }
  return out;
}

std::string rule_for_site(const site_truth& s, const std::vector<deck_rule>& deck) {
  for (const deck_rule& r : deck) {
    if (r.kind != s.kind) continue;
    if (s.kind == "enclosure") {
      if (r.inner == s.layer1 && r.outer == s.layer2) return r.name;
    } else if (r.layer == s.layer1) {
      return r.name;
    }
  }
  return {};
}

std::vector<report_line> parse_report_text(const std::string& text,
                                           std::vector<std::string>& problems) {
  std::vector<report_line> out;
  std::istringstream in(text);
  std::string line;
  long long header_total = -1;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      long long n = 0;
      if (std::sscanf(line.c_str(), "# total: %lld", &n) == 1) header_total = n;
      continue;
    }
    report_line rl;
    const std::size_t sp = line.find(' ');
    const std::size_t lb = line.find('[');
    const std::size_t dots = line.find(" .. ", lb == std::string::npos ? 0 : lb);
    const std::size_t rb = line.find(']', dots == std::string::npos ? 0 : dots);
    long long a[2] = {0, 0}, b[2] = {0, 0};
    if (sp == std::string::npos || lb == std::string::npos || dots == std::string::npos ||
        rb == std::string::npos ||
        std::sscanf(line.c_str() + lb, "[%lld,%lld", &a[0], &a[1]) != 2 ||
        std::sscanf(line.c_str() + dots, " .. %lld,%lld]", &b[0], &b[1]) != 2) {
      problems.push_back("unparsable report line: " + line);
      continue;
    }
    rl.rule = line.substr(0, sp);
    rl.marker = {a[0], a[1], b[0], b[1]};
    out.push_back(rl);
  }
  if (header_total != static_cast<long long>(out.size())) {
    problems.push_back("report header total " + std::to_string(header_total) + " but " +
                       std::to_string(out.size()) + " violation lines");
  }
  return out;
}

std::vector<std::string> check_signoff(const std::vector<report_line>& report,
                                       const std::vector<site_truth>& sites,
                                       const std::vector<deck_rule>& deck) {
  std::vector<std::string> problems;
  std::vector<std::string> site_rule(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) site_rule[i] = rule_for_site(sites[i], deck);

  std::vector<bool> found(sites.size(), false);
  for (const report_line& rl : report) {
    bool inside = false;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (site_rule[i] == rl.rule && sites[i].marker.contains(rl.marker)) {
        inside = true;
        found[i] = true;
      }
    }
    if (!inside) {
      problems.push_back("stray violation " + rl.rule + " " + show(rl.marker) +
                         " outside every injected site of its rule");
    }
  }
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (!site_rule[i].empty() && !found[i]) {
      problems.push_back("injected " + sites[i].kind + " site " + show(sites[i].marker) +
                         " not reported by " + site_rule[i]);
    }
  }
  return problems;
}

std::optional<box> key_box(const std::string& key) {
  // Right-anchored: measured, e2, e1, layer2, layer1, kind; the rest is the rule.
  std::vector<std::string> fields;
  std::size_t end = key.size();
  for (int i = 0; i < 6; ++i) {
    const std::size_t bar = key.rfind('|', end == 0 ? 0 : end - 1);
    if (bar == std::string::npos) return std::nullopt;
    fields.push_back(key.substr(bar + 1, end - bar - 1));
    end = bar;
  }
  long long e2[4], e1[4];
  if (!parse_four(fields[1], e2) || !parse_four(fields[2], e1)) return std::nullopt;
  box b{std::min({e1[0], e1[2], e2[0], e2[2]}), std::min({e1[1], e1[3], e2[1], e2[3]}),
        std::max({e1[0], e1[2], e2[0], e2[2]}), std::max({e1[1], e1[3], e2[1], e2[3]})};
  return b;
}

std::vector<std::string> check_keys_equal(const std::vector<std::string>& got,
                                          const std::vector<std::string>& want,
                                          const std::string& what) {
  const std::vector<std::string> g = sorted_unique(got);
  const std::vector<std::string> w = sorted_unique(want);
  std::vector<std::string> problems;
  if (g.size() != got.size()) problems.push_back(what + ": duplicate keys");
  std::vector<std::string> extra, missing;
  std::set_difference(g.begin(), g.end(), w.begin(), w.end(), std::back_inserter(extra));
  std::set_difference(w.begin(), w.end(), g.begin(), g.end(), std::back_inserter(missing));
  if (extra.empty() && missing.empty()) return problems;
  std::ostringstream os;
  os << what << ": " << extra.size() << " unexpected, " << missing.size() << " missing";
  for (std::size_t i = 0; i < std::min<std::size_t>(2, extra.size()); ++i) os << "; + " << extra[i];
  for (std::size_t i = 0; i < std::min<std::size_t>(2, missing.size()); ++i) {
    os << "; - " << missing[i];
  }
  problems.push_back(os.str());
  return problems;
}

std::vector<std::string> check_query(const std::vector<std::string>& result, const box& window,
                                     const std::vector<std::string>& stored) {
  std::vector<std::string> want;
  for (const std::string& k : stored) {
    const std::optional<box> b = key_box(k);
    if (!b) return {"stored key does not parse: " + k};
    if (b->overlaps(window)) want.push_back(k);
  }
  return check_keys_equal(result, want, "query " + show(window));
}

std::optional<delta> parse_delta(const std::string& payload) {
  std::istringstream in(payload);
  std::string head;
  if (!std::getline(in, head)) return std::nullopt;
  delta d;
  unsigned long long sub = 0, seq = 0, nf = 0, nn = 0;
  int gap = 0;
  if (std::sscanf(head.c_str(), "delta sub %llu seq %llu fixed %llu new %llu gap %d", &sub, &seq,
                  &nf, &nn, &gap) != 5) {
    return std::nullopt;
  }
  d.seq = seq;
  d.gap = gap != 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("fixed ", 0) == 0) {
      d.fixed.push_back(line.substr(6));
    } else if (line.rfind("new ", 0) == 0) {
      d.added.push_back(line.substr(4));
    } else {
      return std::nullopt;
    }
  }
  if (d.fixed.size() != nf || d.added.size() != nn) return std::nullopt;
  return d;
}

delta_replay::delta_replay(const std::vector<std::string>& initial, std::uint64_t first_seq)
    : keys_(initial.begin(), initial.end()), next_seq_(first_seq) {}

std::vector<std::string> delta_replay::apply(const delta& d) {
  std::vector<std::string> problems;
  if (d.seq != next_seq_) {
    problems.push_back("delta seq " + std::to_string(d.seq) + ", expected " +
                       std::to_string(next_seq_));
  }
  if (d.gap) problems.push_back("delta seq " + std::to_string(d.seq) + " carries a gap marker");
  next_seq_ = d.seq + 1;
  for (const std::string& k : d.fixed) {
    if (keys_.erase(k) == 0) problems.push_back("delta fixes a key that was not stored: " + k);
  }
  for (const std::string& k : d.added) {
    if (!keys_.insert(k).second) problems.push_back("delta adds a key already stored: " + k);
  }
  return problems;
}

}  // namespace perfbench
