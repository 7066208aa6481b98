#include "cq/trigger.hpp"

#include <gtest/gtest.h>

#include "catalog/transaction.hpp"
#include "common/error.hpp"
#include "cq/stop.hpp"

namespace cq::core {
namespace {

using common::Duration;
using common::Timestamp;
using rel::Value;
using rel::ValueType;

struct Fixture {
  cat::Database db;
  std::vector<std::string> relations{"Accounts"};

  Fixture() {
    db.create_table("Accounts", rel::Schema::of({{"owner", ValueType::kString},
                                                 {"amount", ValueType::kInt}}));
  }

  /// A context over a fresh snapshot of `relations`, as a dispatch would
  /// build it; valid until the next ctx() call.
  [[nodiscard]] TriggerContext ctx(Timestamp last, std::uint64_t executions = 1) const {
    snapshots = snapshot_deltas(db, relations);
    return TriggerContext{db, relations, last, db.clock().now(), executions, snapshots};
  }

  mutable delta::SnapshotMap snapshots;
};

TEST(PeriodicTrigger, FiresAfterInterval) {
  Fixture f;
  const auto t = triggers::periodic(Duration(10));
  auto& clock = dynamic_cast<common::VirtualClock&>(f.db.clock());
  const Timestamp last = clock.now();
  EXPECT_FALSE(t->should_fire(f.ctx(last)));
  clock.advance(Duration(9));
  EXPECT_FALSE(t->should_fire(f.ctx(last)));
  clock.advance(Duration(1));
  EXPECT_TRUE(t->should_fire(f.ctx(last)));
}

TEST(PeriodicTrigger, RejectsNonPositiveInterval) {
  EXPECT_THROW(triggers::periodic(Duration(0)), common::InvalidArgument);
}

TEST(AtTimesTrigger, FiresOncePerScheduledInstant) {
  Fixture f;
  auto& clock = dynamic_cast<common::VirtualClock&>(f.db.clock());
  const auto t = triggers::at_times({Timestamp(100), Timestamp(200)});
  EXPECT_FALSE(t->should_fire(f.ctx(Timestamp(0))));
  clock.advance_to(Timestamp(150));
  EXPECT_TRUE(t->should_fire(f.ctx(Timestamp(0))));
  // After executing at 150, the 100 instant is consumed.
  EXPECT_FALSE(t->should_fire(f.ctx(Timestamp(150))));
  clock.advance_to(Timestamp(250));
  EXPECT_TRUE(t->should_fire(f.ctx(Timestamp(150))));
  EXPECT_FALSE(t->should_fire(f.ctx(Timestamp(250))));
}

TEST(OnChangeTrigger, FiresOnlyWhenDeltaExists) {
  Fixture f;
  const auto t = triggers::on_change();
  const Timestamp last = f.db.clock().now();
  EXPECT_FALSE(t->should_fire(f.ctx(last)));
  f.db.insert("Accounts", {Value("ann"), Value(100)});
  EXPECT_TRUE(t->should_fire(f.ctx(last)));
  // After re-execution the window is empty again.
  EXPECT_FALSE(t->should_fire(f.ctx(f.db.clock().now())));
}

TEST(ChangeCountTrigger, CountsNetTuples) {
  Fixture f;
  const auto t = triggers::change_count(3);
  const Timestamp last = f.db.clock().now();
  f.db.insert("Accounts", {Value("a"), Value(1)});
  f.db.insert("Accounts", {Value("b"), Value(2)});
  EXPECT_FALSE(t->should_fire(f.ctx(last)));
  f.db.insert("Accounts", {Value("c"), Value(3)});
  EXPECT_TRUE(t->should_fire(f.ctx(last)));
}

TEST(ChangeCountTrigger, NetEffectNotRawCount) {
  Fixture f;
  const auto t = triggers::change_count(2);
  const Timestamp last = f.db.clock().now();
  // Insert then delete the same tuple: net zero relevant changes.
  const auto tid = f.db.insert("Accounts", {Value("a"), Value(1)});
  f.db.erase("Accounts", tid);
  EXPECT_FALSE(t->should_fire(f.ctx(last)));
}

TEST(AggregateDriftTrigger, CheckingAccountExample) {
  // Section 5.3: fire when |Deposits - Withdrawals| >= 0.5M, evaluated
  // against the differential relation only.
  Fixture f;
  const auto t = triggers::aggregate_drift("Accounts", "amount", 500000.0);
  const Timestamp last = f.db.clock().now();

  const auto acc = f.db.insert("Accounts", {Value("corp"), Value(100000)});
  EXPECT_FALSE(t->should_fire(f.ctx(last)));  // +100k < 500k

  f.db.modify("Accounts", acc, {Value("corp"), Value(700000)});
  // Net drift since `last`: +700000 (insert of 700k after composition).
  EXPECT_TRUE(t->should_fire(f.ctx(last)));
}

TEST(AggregateDriftTrigger, DepositsMinusWithdrawalsCancel) {
  Fixture f;
  const auto t = triggers::aggregate_drift("Accounts", "amount", 1000.0);
  const auto a = f.db.insert("Accounts", {Value("x"), Value(5000)});
  const auto b = f.db.insert("Accounts", {Value("y"), Value(5000)});
  const Timestamp last = f.db.clock().now();
  // +600 to one account, -600 from another: |drift| = 0.
  f.db.modify("Accounts", a, {Value("x"), Value(5600)});
  f.db.modify("Accounts", b, {Value("y"), Value(4400)});
  EXPECT_FALSE(t->should_fire(f.ctx(last)));
  // One more deposit of 1200 pushes |drift| over epsilon.
  f.db.modify("Accounts", a, {Value("x"), Value(6800)});
  EXPECT_TRUE(t->should_fire(f.ctx(last)));
}

TEST(AggregateDriftTrigger, AbsoluteValueOfWithdrawals) {
  Fixture f;
  const auto t = triggers::aggregate_drift("Accounts", "amount", 900.0);
  const auto a = f.db.insert("Accounts", {Value("x"), Value(5000)});
  const Timestamp last = f.db.clock().now();
  f.db.modify("Accounts", a, {Value("x"), Value(4000)});  // withdrawal of 1000
  EXPECT_TRUE(t->should_fire(f.ctx(last)));
}

TEST(AggregateDriftTrigger, Validation) {
  EXPECT_THROW(triggers::aggregate_drift("T", "c", 0.0), common::InvalidArgument);
  EXPECT_THROW(triggers::aggregate_drift("T", "c", -1.0), common::InvalidArgument);
}

TEST(CompositeTrigger, AllOfAndAnyOf) {
  Fixture f;
  auto& clock = dynamic_cast<common::VirtualClock&>(f.db.clock());
  const Timestamp last = clock.now();
  const auto periodic = triggers::periodic(Duration(100));
  const auto change = triggers::on_change();

  const auto both = triggers::all_of({periodic, change});
  const auto either = triggers::any_of({periodic, change});

  f.db.insert("Accounts", {Value("a"), Value(1)});
  EXPECT_FALSE(both->should_fire(f.ctx(last)));   // interval not elapsed
  EXPECT_TRUE(either->should_fire(f.ctx(last)));  // change suffices
  clock.advance(Duration(200));
  EXPECT_TRUE(both->should_fire(f.ctx(last)));
}

TEST(CompositeTrigger, Validation) {
  EXPECT_THROW(triggers::all_of({}), common::InvalidArgument);
  EXPECT_THROW(triggers::any_of({nullptr}), common::InvalidArgument);
}

TEST(ManualTrigger, NeverFires) {
  Fixture f;
  f.db.insert("Accounts", {Value("a"), Value(1)});
  EXPECT_FALSE(triggers::manual()->should_fire(f.ctx(Timestamp::min())));
}

TEST(Describe, AllTriggersDescribeThemselves) {
  EXPECT_FALSE(triggers::periodic(Duration(5))->describe().empty());
  EXPECT_FALSE(triggers::on_change()->describe().empty());
  EXPECT_FALSE(triggers::change_count(2)->describe().empty());
  EXPECT_FALSE(triggers::aggregate_drift("T", "c", 1.0)->describe().empty());
  EXPECT_FALSE(triggers::manual()->describe().empty());
  EXPECT_FALSE(
      triggers::any_of({triggers::on_change(), triggers::manual()})->describe().empty());
}

TEST(StopConditions, Never) {
  Fixture f;
  EXPECT_FALSE(stop::never()->satisfied(f.ctx(Timestamp::min())));
}

TEST(StopConditions, AtTime) {
  Fixture f;
  auto& clock = dynamic_cast<common::VirtualClock&>(f.db.clock());
  const auto s = stop::at_time(Timestamp(100));
  EXPECT_FALSE(s->satisfied(f.ctx(Timestamp::min())));
  clock.advance_to(Timestamp(100));
  EXPECT_TRUE(s->satisfied(f.ctx(Timestamp::min())));
}

TEST(StopConditions, AfterExecutions) {
  Fixture f;
  const auto s = stop::after_executions(3);
  EXPECT_FALSE(s->satisfied(f.ctx(Timestamp::min(), 2)));
  EXPECT_TRUE(s->satisfied(f.ctx(Timestamp::min(), 3)));
  EXPECT_THROW(stop::after_executions(0), common::InvalidArgument);
}

TEST(StopConditions, Predicate) {
  Fixture f;
  const auto s = stop::when(
      [](const TriggerContext& c) { return c.executions > 5; }, "more than 5 runs");
  EXPECT_FALSE(s->satisfied(f.ctx(Timestamp::min(), 5)));
  EXPECT_TRUE(s->satisfied(f.ctx(Timestamp::min(), 6)));
  EXPECT_EQ(s->describe(), "more than 5 runs");
  EXPECT_THROW(stop::when(nullptr, "x"), common::InvalidArgument);
}

}  // namespace
}  // namespace cq::core
