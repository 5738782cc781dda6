#include "core/codec.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

namespace meda::core {

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool parse_double(const std::string& token, double& out) {
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return !token.empty() && end == token.c_str() + token.size();
}

bool read_double(std::istream& is, double& out) {
  std::string token;
  return static_cast<bool>(is >> token) && parse_double(token, out);
}

void write_rect(std::ostream& os, const Rect& r) {
  os << r.xa << ' ' << r.ya << ' ' << r.xb << ' ' << r.yb;
}

Rect read_rect(std::istream& is) {
  Rect r;
  is >> r.xa >> r.ya >> r.xb >> r.yb;
  return r;
}

void write_strategy(std::ostream& os, const Strategy& strategy, char sep) {
  std::vector<std::pair<Rect, Action>> rows(strategy.begin(), strategy.end());
  std::sort(rows.begin(), rows.end());
  os << rows.size();
  for (const auto& [droplet, action] : rows) {
    os << sep;
    write_rect(os, droplet);
    os << ' ' << static_cast<int>(action);
  }
}

bool read_strategy(std::istream& is, Strategy& out) {
  std::size_t rows = 0;
  if (!(is >> rows) || rows > kMaxStrategyRows) return false;
  for (std::size_t i = 0; i < rows; ++i) {
    const Rect droplet = read_rect(is);
    int action = -1;
    is >> action;
    if (is.fail() || action < 0 ||
        action >= static_cast<int>(kAllActions.size()))
      return false;
    out.set(droplet, static_cast<Action>(action));
  }
  return true;
}

}  // namespace meda::core
