// Output checks of the end-to-end benchmark, computed apart from the engine.
//
// Every function here works on the program's *outputs* (the text report, the
// violation keys the server stores and pushes, query answers) plus ground
// truth the benchmark knows independently (the generator's injected sites,
// the deck text). None of them calls into the checker, the report module or
// the serve layer, so a fault there cannot hide itself. Each returns a list
// of human-readable problems; empty means the output is correct.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Closed axis-aligned box (the engine's rect semantics: touching overlaps).
struct box {
  long long x1 = 0, y1 = 0, x2 = 0, y2 = 0;

  [[nodiscard]] bool overlaps(const box& o) const {
    return x1 <= o.x2 && o.x1 <= x2 && y1 <= o.y2 && o.y1 <= y2;
  }
  [[nodiscard]] bool contains(const box& o) const {
    return x1 <= o.x1 && o.x2 <= x2 && y1 <= o.y1 && o.y2 <= y2;
  }
};

/// One `rule NAME KIND key=value ...` line of a deck file.
struct deck_rule {
  std::string name;
  std::string kind;
  int layer = -1;  ///< width/spacing/area
  int inner = -1;  ///< enclosure: enclosed (via) layer
  int outer = -1;  ///< enclosure: enclosing (metal) layer
};

[[nodiscard]] std::vector<deck_rule> parse_deck_text(const std::string& text);

/// An injected violation site as the generator recorded it.
struct site_truth {
  std::string kind;  ///< width | spacing | enclosure | area
  int layer1 = 0;    ///< the checked layer (the via layer for enclosure)
  int layer2 = 0;    ///< enclosure: the metal whose margin was broken
  box marker;
};

/// Name of the deck rule that must report `s`, or "" when the deck has none.
[[nodiscard]] std::string rule_for_site(const site_truth& s, const std::vector<deck_rule>& deck);

/// One violation line of a text report (`RULE KIND L.. [x1,y1 .. x2,y2] ...`).
struct report_line {
  std::string rule;
  box marker;
};

/// Parse the violation lines of a text report; `problems` collects lines
/// that do not parse and a `# total:` header that disagrees with the count.
[[nodiscard]] std::vector<report_line> parse_report_text(const std::string& text,
                                                         std::vector<std::string>& problems);

/// Signoff ground truth: every site whose rule is in the deck is reported by
/// that rule inside the site's marker, and every reported violation lies
/// inside the marker of a site of its own rule (the fabric is violation-free
/// by construction).
[[nodiscard]] std::vector<std::string> check_signoff(const std::vector<report_line>& report,
                                                     const std::vector<site_truth>& sites,
                                                     const std::vector<deck_rule>& deck);

/// Marker box of a violation key (`rule|kind|l1|l2|x,y,x,y|x,y,x,y|measured`,
/// parsed from the right so rule names may contain '|').
[[nodiscard]] std::optional<box> key_box(const std::string& key);

/// Set equality of two key lists; names up to a few differing keys.
[[nodiscard]] std::vector<std::string> check_keys_equal(const std::vector<std::string>& got,
                                                        const std::vector<std::string>& want,
                                                        const std::string& what);

/// A windowed query answer equals a scan of the stored keys by marker overlap.
[[nodiscard]] std::vector<std::string> check_query(const std::vector<std::string>& result,
                                                   const box& window,
                                                   const std::vector<std::string>& stored);

/// One pushed `delta sub <id> seq <n> fixed F new K gap G` frame.
struct delta {
  std::uint64_t seq = 0;
  bool gap = false;
  std::vector<std::string> fixed;
  std::vector<std::string> added;
};

[[nodiscard]] std::optional<delta> parse_delta(const std::string& payload);

/// Replays pushed deltas onto an initial key set. A frame out of sequence,
/// a gap marker, or a fixed key that is not present is a problem.
class delta_replay {
 public:
  explicit delta_replay(const std::vector<std::string>& initial, std::uint64_t first_seq = 0);

  /// Apply one frame; returns the problems it showed (empty when clean).
  std::vector<std::string> apply(const delta& d);

  [[nodiscard]] std::vector<std::string> keys() const { return {keys_.begin(), keys_.end()}; }

 private:
  std::set<std::string> keys_;
  std::uint64_t next_seq_;
};

}  // namespace perfbench
