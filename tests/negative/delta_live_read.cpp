// NEGATIVE-COMPILE TEST — the compiler enforces that delta::DeltaSnapshot
// is the one reader of delta logs: DeltaRelation derives no views, and its
// GC pin is private to the snapshot.
//
// Only the EXCLUDE_FROM_ALL targets in tests/CMakeLists.txt build this
// file, each through a ctest case of the same name:
//   delta_live_read_control     no define: must compile — the reads below
//                               go through a snapshot, so any failure of
//                               the two cases after it is their violation;
//   delta_live_read_net_effect  -DCQ_LIVE_NET_EFFECT: a view read off the
//                               live log must fail with "has no member
//                               named 'net_effect'";
//   delta_live_read_pin_reads   -DCQ_LIVE_PIN_READS: a hand-placed pin
//                               must fail with "pin_reads() const' is
//                               private within this context".
#include <cstddef>

#include "delta/delta_relation.hpp"
#include "delta/delta_snapshot.hpp"

namespace cq::delta {

std::size_t pending_rows(const DeltaRelation& d, common::Timestamp since) {
  const DeltaSnapshot snap(d);
  std::size_t rows = snap.net_effect(since).size() + snap.insertions(since).size() +
                     snap.deletions(since).size() + snap.as_wide_relation(since).size();
#ifdef CQ_LIVE_NET_EFFECT
  rows += d.net_effect(since).size();
#endif
#ifdef CQ_LIVE_PIN_READS
  [[maybe_unused]] const auto pin = d.pin_reads();
#endif
  return rows;
}

}  // namespace cq::delta
