#include "workload.h"

namespace perfbench {

void append_topologies(int nodes, std::vector<std::string>& specs) {
  const std::string g = "x8:";
  const std::pair<const char*, const char*> clusters[] = {
      {"ib", "roce"}, {"ib", "ib"}, {"roce", "roce"}};
  for (const auto& [first, second] : clusters) {
    for (int a = 1; a < nodes; ++a) {
      specs.push_back(std::to_string(a) + g + first + "+" +
                      std::to_string(nodes - a) + g + second);
    }
  }
  for (const char* nic : {"ib", "roce", "eth"}) {
    specs.push_back(std::to_string(nodes) + g + nic);
  }
}

}  // namespace perfbench
