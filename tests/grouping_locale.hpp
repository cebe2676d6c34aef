#pragma once

// A global locale that groups digits in threes ("1,234,567"), installed for
// one scope: the hostile locale the byte-identity tests format under.

#include <locale>
#include <string>

namespace sor {

struct GroupingPunct : std::numpunct<char> {
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\3"; }
};

/// Installs the grouping locale as the global one, and restores the
/// previous global locale on destruction.
class ScopedGroupingLocale {
 public:
  ScopedGroupingLocale()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new GroupingPunct))) {}
  ~ScopedGroupingLocale() { std::locale::global(previous_); }
  ScopedGroupingLocale(const ScopedGroupingLocale&) = delete;
  ScopedGroupingLocale& operator=(const ScopedGroupingLocale&) = delete;

 private:
  std::locale previous_;
};

}  // namespace sor
