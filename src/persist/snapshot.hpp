// Durable snapshots: serialize a whole Database (schemas, base tables with
// tids, differential logs, index definitions, clock) plus a manifest of the
// installed continual queries' runtime positions, so a monitoring
// deployment can stop and resume without re-running initial executions or
// losing unconsumed deltas.
//
// CQ derived state (saved results, aggregate and DISTINCT grouped state)
// is deliberately *not* serialized: on restore it is reconstructed from the
// snapshot database by running the DRA in reverse
// (ContinualQuery::restore), which both keeps the format small and
// exercises the same differential machinery the paper proves correct.
//
// Triggers and sinks contain arbitrary behaviour (callbacks, composed
// conditions) and cannot round-trip through bytes; the application
// re-supplies each CQ's spec at restore time, matched to the manifest by
// CQ name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "catalog/database.hpp"
#include "cq/manager.hpp"
#include "diom/mediator.hpp"
#include "diom/wire.hpp"

namespace cq::persist {

using diom::Bytes;

/// Serialize the full database state.
[[nodiscard]] Bytes save_database(const cat::Database& db);

/// Rebuild a database from save_database output. The returned database has
/// its own VirtualClock advanced to the saved instant; indexes are rebuilt.
[[nodiscard]] cat::Database load_database(const Bytes& bytes);

/// One installed CQ's resumable position.
struct CqManifestEntry {
  std::string name;
  common::Timestamp last_execution;
  std::uint64_t executions = 0;
};

/// Manifest of every CQ currently installed in `manager`.
[[nodiscard]] std::vector<CqManifestEntry> manifest(const core::CqManager& manager);

[[nodiscard]] Bytes encode_manifest(const std::vector<CqManifestEntry>& entries);
[[nodiscard]] std::vector<CqManifestEntry> decode_manifest(const Bytes& bytes);

/// Convenience: save/restore database + manifest as one blob.
struct Snapshot {
  Bytes database;
  Bytes manifest;
};

[[nodiscard]] Bytes encode_snapshot(const cat::Database& db,
                                    const core::CqManager& manager);

struct DecodedSnapshot {
  cat::Database db;
  std::vector<CqManifestEntry> cqs;
};

[[nodiscard]] DecodedSnapshot decode_snapshot(const Bytes& bytes);

// ---- mediator deployments ----

/// Serialize a mediator's whole client-side state: the mirror database
/// (with delta logs and indexes) plus every attached source's resumable
/// position (cursor + tid mapping). Sinks/triggers of the mediator's CQ
/// manager follow the same rule as CqManager snapshots: re-supply the specs
/// at restore time (see `manifest`).
[[nodiscard]] Bytes save_mediator(const diom::Mediator& mediator);

/// Rebuild a mediator from save_mediator output. `sources` are matched to
/// saved states by source name; every saved state must find its source.
/// Returns the mediator plus the CQ manifest of its manager.
struct RestoredMediator {
  std::unique_ptr<diom::Mediator> mediator;
  std::vector<CqManifestEntry> cqs;
};
[[nodiscard]] RestoredMediator restore_mediator(
    const Bytes& bytes, std::string client_name, diom::Network* network,
    const std::vector<std::shared_ptr<diom::InformationSource>>& sources);

/// File convenience wrappers (atomic via write-to-temp-then-rename).
void save_snapshot_file(const std::string& path, const cat::Database& db,
                        const core::CqManager& manager);
[[nodiscard]] DecodedSnapshot load_snapshot_file(const std::string& path);

}  // namespace cq::persist
