// Output comparisons against independent references. Each returns an empty
// string on a match and a short description of the first mismatch
// otherwise.
#pragma once

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

template <typename T>
std::string CompareExact(const std::vector<T>& got,
                         const std::vector<T>& want) {
  if (got.size() != want.size()) return "size mismatch";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      std::ostringstream os;
      os << "element " << i << ": got " << got[i] << ", want " << want[i];
      return os.str();
    }
  }
  return "";
}

/// |got - want| <= tol * (1 + |want|) elementwise.
inline std::string CompareNear(const std::vector<float>& got,
                               const std::vector<float>& want, double tol) {
  if (got.size() != want.size()) return "size mismatch";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = got[i];
    const double w = want[i];
    if (!(std::fabs(g - w) <= tol * (1.0 + std::fabs(w)))) {
      std::ostringstream os;
      os << "element " << i << ": got " << g << ", want " << w;
      return os.str();
    }
  }
  return "";
}

}  // namespace perfbench
