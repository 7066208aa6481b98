// NEGATIVE-COMPILE TEST — the compiler enforces that work counters are
// interned: Metrics::add takes a metric::Id, so a string-keyed counter
// ("ad hoc" spelling, a map lookup on the hot path) cannot be written.
//
// Only the EXCLUDE_FROM_ALL targets in tests/CMakeLists.txt build this
// file, each through a ctest case of the same name:
//   string_counter_control  no define: must compile — the interned add
//                           below is the sanctioned form, so a failure of
//                           the case after it is its violation;
//   string_counter_keyed    -DCQ_STRING_COUNTER: m.add("x", 1) must fail
//                           with "cannot convert 'const char [2]' to
//                           'cq::common::metric::Id'".
#include "common/metrics.hpp"

namespace cq::common {

void count_scan(Metrics& m) {
  m.add(metric::kRowsScanned, 1);
#ifdef CQ_STRING_COUNTER
  m.add("x", 1);
#endif
}

}  // namespace cq::common
