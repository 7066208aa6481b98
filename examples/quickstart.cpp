// Quickstart: the paper's running example, end to end.
//
// Reproduces Example 1 (Section 4.1) — a transaction that inserts MAC,
// modifies DEC, and deletes QLI — and Example 2 (Section 4.2) — the
// continual query σ_price>120(Stocks) evaluated differentially — and shows
// that the DRA's answer matches complete re-evaluation.
#include <iostream>

#include "catalog/database.hpp"
#include "catalog/transaction.hpp"
#include "cq/dra.hpp"
#include "cq/propagate.hpp"
#include "delta/delta_snapshot.hpp"
#include "query/parser.hpp"

int main() {
  using cq::rel::Value;
  using cq::rel::ValueType;

  // --- 1. An information source: the Stocks relation -------------------
  cq::cat::Database db;
  db.create_table("Stocks", cq::rel::Schema::of({{"name", ValueType::kString},
                                                 {"price", ValueType::kInt}}));
  auto load = db.begin();
  const auto dec = load.insert("Stocks", {Value("DEC"), Value(150)});
  const auto qli = load.insert("Stocks", {Value("QLI"), Value(145)});
  load.insert("Stocks", {Value("IBM"), Value(80)});
  load.commit();

  // --- 2. A continual query (installed: initial complete execution) ----
  const auto query = cq::qry::parse_query("SELECT * FROM Stocks WHERE price > 120");
  const cq::rel::Relation initial = cq::core::recompute(query, db);
  std::cout << "Initial execution E0 of  " << query.to_string() << "\n"
            << initial.to_string() << "\n";
  const cq::common::Timestamp t0 = db.clock().now();

  // --- 3. The paper's transaction T (Example 1) ------------------------
  auto txn = db.begin();
  txn.insert("Stocks", {Value("MAC"), Value(117)});
  txn.modify("Stocks", dec, {Value("DEC"), Value(149)});
  txn.erase("Stocks", qli);
  txn.commit();
  std::cout << "After transaction T, the differential relation holds:\n"
            << db.delta("Stocks").to_string() << "\n";
  const cq::delta::DeltaSnapshot stocks(db.delta("Stocks"));
  std::cout << "insertions(ΔStocks):\n" << stocks.insertions(t0).to_string() << "\n";
  std::cout << "deletions(ΔStocks):\n" << stocks.deletions(t0).to_string() << "\n";

  // --- 4. Differential re-evaluation (the DRA, Algorithm 1) ------------
  cq::core::DraStats stats;
  const cq::core::DiffResult delta =
      cq::core::dra_differential(query, db, t0, nullptr, &stats);
  std::cout << "DRA result (" << stats.changed_relations << " changed relation, "
            << stats.terms_evaluated << " truth-table term, " << stats.delta_rows_read
            << " delta rows read):\n"
            << delta.to_string() << "\n";

  // --- 5. Functional equivalence with complete re-evaluation -----------
  const cq::core::DiffResult oracle = cq::core::propagate(query, db, initial);
  std::cout << "Propagate (recompute-from-scratch) agrees: "
            << (delta.equivalent(oracle) ? "yes" : "NO — BUG") << "\n";

  // --- 6. The complete-result formula of Section 4.2 -------------------
  const cq::rel::Relation next = cq::core::apply_diff(initial, delta.consolidated());
  std::cout << "E1 = E0 − deletions ∪ insertions:\n" << next.to_string();
  return 0;
}
