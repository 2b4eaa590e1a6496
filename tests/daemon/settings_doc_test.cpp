// The ctl settings table in docs/OBSERVABILITY.md must list exactly the
// settings the daemon's settings table declares, each with its boot flag.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

#include "daemon/settings.hpp"

namespace muerp::daemon {
namespace {

/// The text between the first pair of backticks in `cell`; "" when none.
std::string backticked(const std::string& cell) {
  const auto open = cell.find('`');
  if (open == std::string::npos) return "";
  const auto close = cell.find('`', open + 1);
  return cell.substr(open + 1, close - open - 1);
}

/// setting -> boot flag ("" for none), from the doc's `| setting |` table.
std::map<std::string, std::string> documented_settings() {
  std::ifstream doc(MUERP_OBSERVABILITY_DOC);
  EXPECT_TRUE(doc.is_open()) << MUERP_OBSERVABILITY_DOC;
  std::map<std::string, std::string> out;
  std::string line;
  bool in_table = false;
  while (std::getline(doc, line)) {
    if (line.rfind("| setting ", 0) == 0) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (line.rfind("|", 0) != 0) break;
    if (line.rfind("|-", 0) == 0) continue;
    const auto second = line.find('|', 1);
    const auto third = line.find('|', second + 1);
    const std::string name = backticked(line.substr(1, second - 1));
    std::string flag = backticked(line.substr(second + 1, third - second - 1));
    if (flag.rfind("--", 0) == 0) flag.erase(0, 2);
    EXPECT_TRUE(out.emplace(name, flag).second) << "listed twice: " << name;
  }
  return out;
}

TEST(SettingsDoc, ObservabilityListsExactlyTheCtlSettings) {
  std::map<std::string, std::string> declared;
  for (const Setting& row : settings()) {
    if (row.ctl != nullptr) declared[row.ctl] = row.flag ? row.flag : "";
  }
  const std::map<std::string, std::string> documented = documented_settings();
  for (const auto& [name, flag] : declared) {
    const auto it = documented.find(name);
    ASSERT_NE(it, documented.end())
        << "docs/OBSERVABILITY.md does not list setting " << name;
    EXPECT_EQ(it->second, flag) << "boot flag of " << name;
  }
  for (const auto& [name, flag] : documented) {
    EXPECT_TRUE(declared.count(name))
        << "docs/OBSERVABILITY.md lists " << name
        << ", which the settings table lacks";
  }
}

}  // namespace
}  // namespace muerp::daemon
