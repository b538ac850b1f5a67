// Tensor shape/size description. The scheduler and transfer-cost model only
// ever need byte counts, but keeping dims explicit makes the model zoo and
// example programs read naturally.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "common/types.h"

namespace fluidfaas::model {

struct TensorSpec {
  std::vector<std::int64_t> dims;
  int dtype_bytes = 4;  // fp32 by default

  TensorSpec() = default;
  TensorSpec(std::initializer_list<std::int64_t> d, int dtype = 4)
      : dims(d), dtype_bytes(dtype) {}

  Bytes bytes() const {
    if (dims.empty()) return 0;
    std::int64_t n = std::accumulate(dims.begin(), dims.end(),
                                     std::int64_t{1},
                                     std::multiplies<std::int64_t>());
    return n * dtype_bytes;
  }

  std::string ToString() const {
    std::string s = "[";
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (i) s += "x";
      s += std::to_string(dims[i]);
    }
    s += "]x" + std::to_string(dtype_bytes) + "B";
    return s;
  }
};

}  // namespace fluidfaas::model
