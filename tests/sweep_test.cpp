// Tests for the flow::Sweep batch driver and the flow::Metrics
// exposition: grid expansion, dedup-before-compile proven by the
// artifact-build counters, differential equality against serial Design
// runs, mid-sweep cancellation, and the Prometheus text format of sweeps
// and campaigns.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <chrono>
#include <climits>
#include <future>
#include <latch>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dfs_helpers.hpp"
#include "rap/flow/campaign.hpp"
#include "rap/flow/metrics.hpp"
#include "rap/flow/sweep.hpp"
#include "rap/verify/cache.hpp"

namespace rap::flow {
namespace {

/// OPE-style factory over the generic pipeline builder: small enough for
/// tier-1 runs (the real 3-stage reconfigurable OPE is ~191k states),
/// with the chip's validity rule expressed by throwing.
pipeline::Pipeline ope_style_factory(int stages, int depth) {
    if (depth < 1 || depth > stages) {
        throw std::invalid_argument(
            "depth " + std::to_string(depth) + " out of range for " +
            std::to_string(stages) + " stages");
    }
    return pipeline::build_pipeline(
        "sweep_s" + std::to_string(stages) + "_d" + std::to_string(depth),
        dfs::testing::ope_style_stages(stages, depth));
}

TEST(Sweep, GridExpandsInStableOrder) {
    Sweep sweep(&ope_style_factory);
    const auto grid = sweep.stages({2, 3}).depths(1, 3).grid();
    ASSERT_EQ(grid.size(), 2u * 3u);
    // stages outermost, then depth
    EXPECT_EQ(grid[0].label, "s2/d1");
    EXPECT_EQ(grid[1].label, "s2/d2");
    EXPECT_EQ(grid[2].label, "s2/d3");
    EXPECT_EQ(grid[3].label, "s3/d1");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(grid[i].index, i);
    }
}

TEST(Sweep, RejectsEmptyAxesAndNullFactory) {
    EXPECT_THROW(Sweep(Sweep::Factory{}), std::invalid_argument);
    Sweep sweep(&ope_style_factory);
    const std::vector<SweepPoint> before =
        sweep.stages({3}).depths(3, 3).grid();
    EXPECT_THROW(sweep.stages({}), std::invalid_argument);
    EXPECT_THROW(sweep.depths({}), std::invalid_argument);
    EXPECT_THROW(sweep.depths(3, 2), std::invalid_argument);
    EXPECT_THROW(sweep.depths(4, 3), std::invalid_argument);

    // A refused setter leaves its axis as it was.
    const std::vector<SweepPoint> after = sweep.grid();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < after.size(); ++i) {
        EXPECT_EQ(after[i].label, before[i].label);
    }

    // A range ending at INT_MAX stops there instead of overflowing. The
    // grid is only expanded, never run.
    const std::vector<SweepPoint> top =
        sweep.depths(INT_MAX - 1, INT_MAX).grid();
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].depth, INT_MAX - 1);
    EXPECT_EQ(top[1].depth, INT_MAX);
}

// The acceptance sweep: dedup-before-compile proven by the global
// artifact-build counter, results identical to running each
// configuration's Design serially.
TEST(Sweep, DedupsBeforeCompileAndMatchesSerialRuns) {
    DesignOptions base;

    // Valid (stages, depth) pairs with stages in {1,2,3,3}, depth 1..6:
    // s1:d1, s2:d1-2, s3:d1-3 -> 6 distinct model contents. The repeated
    // stage count reaches the three s3 models a second time.
    const std::size_t kDistinct = 6;
    const std::size_t kGrid = 4 * 6;
    const std::size_t kValid = 1 + 2 + 3 + 3;

    const std::size_t builds_before = verify::artifact_builds();
    const verify::CacheStats cache_before = verify::cache_stats();

    std::atomic<std::size_t> streamed{0};
    Sweep sweep(&ope_style_factory, base);
    Sweep::Handle handle =
        sweep.stages({1, 2, 3, 3})
            .depths(1, 6)
            .workers(4)
            .on_result([&](const SweepResult&) { ++streamed; })
            .launch();
    const std::vector<SweepResult> rows = handle.wait();

    ASSERT_EQ(rows.size(), kGrid);
    EXPECT_EQ(streamed.load(), kGrid);
    EXPECT_EQ(handle.done(), kGrid);
    EXPECT_EQ(handle.total(), kGrid);
    EXPECT_FALSE(handle.cancelled());

    // Dedup before compile: 24 grid points, 6 distinct model contents,
    // exactly 6 artifact builds — every other lookup was a cache hit.
    EXPECT_EQ(handle.distinct_models(), kDistinct);
    EXPECT_EQ(verify::artifact_builds() - builds_before, kDistinct);
    const verify::CacheStats cache_after = verify::cache_stats();
    EXPECT_EQ(cache_after.misses - cache_before.misses, kDistinct);
    EXPECT_GT(cache_after.hits, cache_before.hits);

    std::size_t ok = 0;
    std::size_t invalid = 0;
    std::size_t states_sum = 0;
    std::size_t peak_bytes_max = 0;
    std::size_t por_active = 0;
    std::size_t por_enabled_sum = 0;
    std::size_t por_expanded_sum = 0;
    for (const SweepResult& row : rows) {
        EXPECT_EQ(row.point.index,
                  static_cast<std::size_t>(&row - rows.data()));
        states_sum += row.states;
        peak_bytes_max =
            std::max(peak_bytes_max, row.report.memory.peak_bytes);
        if (row.report.por.active) {
            ++por_active;
            por_enabled_sum += row.report.por.enabled_transitions;
            por_expanded_sum += row.report.por.expanded_transitions;
        }
        if (row.status == SweepStatus::kInvalid) {
            ++invalid;
            EXPECT_GT(row.point.depth, row.point.stages);
            EXPECT_NE(row.error.find("out of range"), std::string::npos);
            continue;
        }
        ASSERT_EQ(row.status, SweepStatus::kOk) << row.point.label;
        ++ok;
        EXPECT_TRUE(row.report.clean()) << row.point.label;
        EXPECT_GT(row.states, 0u);
        EXPECT_GE(row.verify_seconds, 0.0);
        EXPECT_GT(row.report.memory.store.records, 0u);

        // Sweeps verify with partial-order reduction on by default; the
        // pass over these nets carries persistence, so reduction must
        // at least have been attempted (active), whatever it saved.
        const petri::PorStats& por = row.report.por;
        EXPECT_TRUE(por.active) << row.point.label;
        EXPECT_GT(por.expansions, 0u) << row.point.label;
        EXPECT_GE(por.enabled_transitions, por.expanded_transitions)
            << row.point.label;

        // Differential: a serial Design session over the same factory
        // output, same options shape (same reduction default as the
        // sweep), must agree verdict-for-verdict and state-for-state.
        DesignOptions serial_options = base;
        serial_options.verify.por = true;
        const auto design = make_design(
            ope_style_factory(row.point.stages, row.point.depth),
            serial_options);
        const verify::Report serial = design->verify();
        ASSERT_EQ(row.report.findings.size(), serial.findings.size());
        for (std::size_t i = 0; i < serial.findings.size(); ++i) {
            EXPECT_EQ(row.report.findings[i].violated,
                      serial.findings[i].violated);
            EXPECT_EQ(row.report.findings[i].states_explored,
                      serial.findings[i].states_explored);
            EXPECT_EQ(row.report.findings[i].trace,
                      serial.findings[i].trace);
        }
    }
    EXPECT_EQ(ok, kValid);
    EXPECT_EQ(invalid, kGrid - kValid);

    // The metrics snapshot agrees with the counters, folds the figures
    // of the rows wait() returned, and reports the sweep's cache traffic
    // (hit rate strictly positive).
    const Metrics m = handle.metrics();
    EXPECT_EQ(m.value("rap_sweep_configs_total"),
              static_cast<double>(kGrid));
    EXPECT_EQ(m.value("rap_sweep_configs_done"),
              static_cast<double>(kGrid));
    EXPECT_EQ(m.value("rap_sweep_distinct_models"),
              static_cast<double>(kDistinct));
    EXPECT_EQ(m.value("rap_sweep_in_flight"), 0.0);
    EXPECT_EQ(m.value("rap_sweep_queue_depth"), 0.0);
    EXPECT_GT(m.value("rap_sweep_states_total"), 0.0);
    EXPECT_EQ(m.value("rap_sweep_states_total"),
              static_cast<double>(states_sum));
    EXPECT_EQ(m.value("rap_sweep_peak_resident_bytes"),
              static_cast<double>(peak_bytes_max));
    EXPECT_EQ(m.value("rap_por_active_configs"),
              static_cast<double>(por_active));
    EXPECT_EQ(m.value("rap_por_enabled_transitions_total"),
              static_cast<double>(por_enabled_sum));
    EXPECT_EQ(m.value("rap_por_expanded_transitions_total"),
              static_cast<double>(por_expanded_sum));
    EXPECT_GT(m.value("rap_cache_hit_rate"), 0.0);
    EXPECT_LE(m.value("rap_cache_hit_rate"), 1.0);
    EXPECT_EQ(m.value("rap_cache_misses_total"),
              static_cast<double>(kDistinct));
    // The store geometry gauges of the sweep's largest exploration.
    EXPECT_GT(m.value("rap_store_slots"), 0.0);
    EXPECT_GT(m.value("rap_store_table_bytes"), 0.0);
    EXPECT_GT(m.value("rap_store_arena_bytes"), 0.0);
    EXPECT_GT(m.value("rap_store_load_factor"), 0.0);
    EXPECT_LE(m.value("rap_store_load_factor"), 1.0);
}

// Cancellation honoured mid-sweep: after cancel() returns no further
// callbacks fire, in-flight work stops through the engines' stop hook,
// and wait() drains the pool with the tail rows marked kCancelled.
TEST(Sweep, CancelStopsCallbacksAndDrainsPool) {
    std::promise<void> first_row;
    auto first_row_seen = first_row.get_future();
    std::promise<void> gate;
    auto gate_open = gate.get_future().share();
    std::atomic<int> factory_calls{0};

    // The factory blocks from the second configuration on until the
    // test opens the gate *after* cancelling — deterministic mid-sweep
    // cancellation without timing assumptions.
    auto factory = [&](int stages, int depth) {
        if (factory_calls.fetch_add(1) > 0) gate_open.wait();
        return ope_style_factory(stages, depth);
    };

    std::atomic<std::size_t> callbacks{0};
    bool first_signalled = false;
    Sweep sweep{Sweep::Factory(factory)};
    Sweep::Handle handle =
        sweep.stages({2, 3})
            .depths(1, 2)  // 4 configurations, all valid
            .workers(1)
            .spec(verify::Spec{}.deadlock())
            .on_result([&](const SweepResult&) {
                ++callbacks;
                if (!first_signalled) {
                    first_signalled = true;
                    first_row.set_value();
                }
            })
            .launch();

    first_row_seen.wait();
    handle.cancel();
    EXPECT_TRUE(handle.cancelled());
    const std::size_t callbacks_at_cancel = callbacks.load();
    gate.set_value();

    const std::vector<SweepResult> rows = handle.wait();
    // The pool drained: every slot reports, but no callback fired after
    // cancel() returned.
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(handle.done(), 4u);
    EXPECT_EQ(callbacks.load(), callbacks_at_cancel);

    // The first claim, largest first, is s3/d2 at grid index 3.
    EXPECT_EQ(rows[3].status, SweepStatus::kOk);
    std::size_t cancelled = 0;
    for (const SweepResult& row : rows) {
        if (row.status == SweepStatus::kCancelled) ++cancelled;
    }
    EXPECT_GE(cancelled, 3u);
    EXPECT_EQ(handle.metrics().value("rap_sweep_cancelled"), 1.0);
    EXPECT_EQ(handle.metrics().value("rap_sweep_in_flight"), 0.0);
    // Every slot, kCancelled ones included, carries its grid point.
    const std::vector<SweepPoint> grid = sweep.grid();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].point.index, i);
        EXPECT_EQ(rows[i].point.label, grid[i].label);
    }
}

// Workers claim the largest configurations first, in descending
// (stages, depth) order whatever order the axes list their values in, so
// the slowest pass never starts behind smaller ones. Only the claim
// order changes: wait() still returns the rows in grid order.
TEST(Sweep, ClaimsLargestConfigurationsFirst) {
    using Call = std::pair<int, int>;
    std::vector<Call> largest_first;  // s2/d3 is invalid, claimed in place
    for (const int stages : {4, 3, 2}) {
        for (const int depth : {3, 2, 1}) {
            largest_first.emplace_back(stages, depth);
        }
    }
    std::mutex mutex;
    std::vector<Call> calls;
    const auto record = [&](int stages, int depth) {
        const std::lock_guard<std::mutex> lock(mutex);
        calls.emplace_back(stages, depth);
    };
    const auto sweep = [](Sweep::Factory factory) {
        return Sweep(std::move(factory))
            .stages({2, 4, 3})
            .depths({1, 3, 2})
            .spec(verify::Spec{}.deadlock());
    };

    const auto recording = [&](int stages, int depth) {
        record(stages, depth);
        return ope_style_factory(stages, depth);
    };
    const std::vector<SweepResult> rows =
        sweep(Sweep::Factory(recording)).workers(1).run();
    EXPECT_EQ(calls, largest_first);
    const std::vector<SweepPoint> grid = sweep(&ope_style_factory).grid();
    ASSERT_EQ(rows.size(), grid.size());
    ASSERT_EQ(grid[1].label, "s2/d3");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].point.index, i);
        EXPECT_EQ(rows[i].point.label, grid[i].label);
        EXPECT_EQ(rows[i].status,
                  i == 1 ? SweepStatus::kInvalid : SweepStatus::kOk);
    }

    // Two workers: each records its first claim and holds it until the
    // other has made its own, so the first two calls are the two largest
    // points.
    calls.clear();
    std::latch both_claimed(2);
    std::atomic<int> started{0};
    const auto gated = [&](int stages, int depth) {
        record(stages, depth);
        if (started.fetch_add(1) < 2) both_claimed.arrive_and_wait();
        return ope_style_factory(stages, depth);
    };
    sweep(Sweep::Factory(gated)).workers(2).run();
    ASSERT_EQ(calls.size(), largest_first.size());
    const std::set<Call> first_two(calls.begin(), calls.begin() + 2);
    EXPECT_EQ(first_two, (std::set<Call>{{4, 3}, {4, 2}}));
}

// One failure rule for the grid runner: an exception that escapes the
// on_result callback settles its point, cancels the grid and comes out of
// wait() on the caller's thread, instead of ending the process on a
// worker thread. Two workers can each fire one callback before the
// first failure cancels the grid.
TEST(Sweep, ThrowingCallbackSurfacesFromWait) {
    std::atomic<int> calls{0};
    Sweep sweep(&ope_style_factory);
    Sweep::Handle handle =
        sweep.stages({2, 3})
            .depths(1, 2)  // 4 configurations, all valid
            .spec(verify::Spec{}.deadlock())
            .workers(2)
            .on_result([&](const SweepResult&) {
                ++calls;
                throw std::runtime_error("result sink failed");
            })
            .launch();
    try {
        handle.wait();
        ADD_FAILURE() << "wait() returned without the callback's exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "result sink failed");
    }
    EXPECT_TRUE(handle.cancelled());
    EXPECT_EQ(handle.done(), handle.total());
    EXPECT_EQ(handle.metrics().value("rap_sweep_in_flight"), 0.0);
    EXPECT_GE(calls.load(), 1);
    EXPECT_LE(calls.load(), 2);
}

// A pass that dies mid-exploration must not vanish from the memory
// accounting: petri::ExplorationAborted carries the interned footprint at
// the moment of death into the row's report and the sweep's
// peak-resident aggregate. A goal predicate that throws on its 100th
// evaluation kills the pass deterministically: the engine evaluates each
// newly interned state once, so the pass dies at its 100th state.
TEST(Sweep, AbortedPassStillSalvagesPartialMemory) {
    std::size_t evaluations = 0;
    petri::Predicate doomed = petri::Predicate::custom(
        "throws on its 100th evaluation",
        [&evaluations](const petri::Net&, const petri::Marking&) -> bool {
            if (++evaluations == 100) {
                throw std::runtime_error("goal evaluation 100 failed");
            }
            return false;
        });
    Sweep sweep = Sweep::ope();
    Sweep::Handle handle =
        sweep.stages({3})
            .depths({3})
            .workers(1)
            .spec(verify::Spec{}.custom("doomed", std::move(doomed)))
            .launch();
    const std::vector<SweepResult> rows = handle.wait();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, SweepStatus::kInvalid);
    EXPECT_NE(rows[0].error.find("goal evaluation 100 failed"),
              std::string::npos)
        << rows[0].error;
    // The partial pass interned its 100 states before the goal threw —
    // that footprint survives into the row...
    EXPECT_GT(rows[0].report.memory.store.records, 64u);
    EXPECT_GT(rows[0].report.memory.resident_bytes, 0u);
    // ...and into the sweep-wide aggregate (this used to report 0).
    EXPECT_GT(handle.metrics().value("rap_sweep_peak_resident_bytes"),
              0.0);
}

TEST(Metrics, PrometheusExpositionFormat) {
    Metrics m;
    m.set("rap_demo_total", "A counter", Metrics::Type::kCounter, 42.0);
    m.set("rap_demo_gauge", "A gauge", Metrics::Type::kGauge, 0.5);
    // A second set() overwrites the family's value in place.
    m.set("rap_demo_total", "A counter", Metrics::Type::kCounter, 43.0);
    ASSERT_EQ(m.families().size(), 2u);
    EXPECT_EQ(m.value("rap_demo_total"), 43.0);

    const std::string text = metrics::to_prometheus(m);
    EXPECT_NE(text.find("# HELP rap_demo_total A counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE rap_demo_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("\nrap_demo_total 43\n"), std::string::npos);
    EXPECT_EQ(text.find("rap_demo_total 42"), std::string::npos);
    EXPECT_NE(text.find("# TYPE rap_demo_gauge gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("\nrap_demo_gauge 0.5\n"), std::string::npos);
}

/// Parses a Prometheus exposition strictly: every family is exactly the
/// three lines `# HELP name text`, `# TYPE name counter|gauge` and
/// `name value`, with one name in all three, a valid metric name, a
/// finite value that parses whole and no name twice. Returns the names.
std::set<std::string> parse_exposition(const std::string& text) {
    std::set<std::string> names;
    std::istringstream lines(text);
    std::string help;
    std::string type;
    std::string sample;
    while (std::getline(lines, help)) {
        if (!std::getline(lines, type) || !std::getline(lines, sample)) {
            ADD_FAILURE() << "family cut short after: " << help;
            break;
        }
        const std::size_t space = sample.find(' ');
        if (space == 0 || space == std::string::npos) {
            ADD_FAILURE() << "not a `name value` line: " << sample;
            break;
        }
        const std::string name = sample.substr(0, space);
        EXPECT_EQ(help.rfind("# HELP " + name + ' ', 0), 0u) << help;
        EXPECT_GT(help.size(), name.size() + 8) << "no help text: " << help;
        EXPECT_TRUE(type == "# TYPE " + name + " counter" ||
                    type == "# TYPE " + name + " gauge")
            << type;
        EXPECT_FALSE(std::isdigit(static_cast<unsigned char>(name[0])))
            << name;
        for (const char c : name) {
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_')
                << name;
        }
        const std::string value_str = sample.substr(space + 1);
        std::size_t parsed = 0;
        const double value = std::stod(value_str, &parsed);
        EXPECT_EQ(parsed, value_str.size()) << sample;
        EXPECT_TRUE(std::isfinite(value)) << sample;
        EXPECT_TRUE(names.insert(name).second) << "repeated family " << name;
    }
    return names;
}

// The expositions of a finished sweep and a finished campaign parse
// strictly, family by family, and hold the families a dashboard needs.
TEST(Metrics, SweepExpositionParses) {
    Sweep sweep(&ope_style_factory);
    Sweep::Handle handle =
        sweep.stages({2}).depths(1, 2).workers(2).launch();
    handle.wait();
    const std::set<std::string> names =
        parse_exposition(metrics::to_prometheus(handle.metrics()));
    for (const char* required :
         {"rap_sweep_configs_total", "rap_sweep_configs_done",
          "rap_sweep_queue_depth", "rap_sweep_in_flight",
          "rap_sweep_distinct_models", "rap_sweep_states_total",
          "rap_sweep_states_per_second", "rap_sweep_peak_resident_bytes",
          "rap_por_active_configs", "rap_por_enabled_transitions_total",
          "rap_por_expanded_transitions_total",
          "rap_por_ignored_transitions_total", "rap_por_reduction_ratio",
          "rap_cache_hits_total", "rap_cache_misses_total",
          "rap_cache_hit_rate", "rap_cache_entries"}) {
        EXPECT_TRUE(names.count(required)) << required;
    }

    Campaign::Handle campaign =
        Campaign([](int depth) { return ope_style_factory(2, depth); })
            .depths({1, 2})
            .runs(2)
            .items(4)
            .workers(2)
            .launch();
    campaign.wait();
    const std::set<std::string> mc_names =
        parse_exposition(metrics::to_prometheus(campaign.metrics()));
    for (const char* required :
         {"rap_mc_points_total", "rap_mc_points_done", "rap_mc_in_flight",
          "rap_mc_cancelled", "rap_mc_runs_total", "rap_mc_runs_done",
          "rap_mc_failures_total", "rap_mc_hazards_total",
          "rap_mc_faults_injected_total", "rap_mc_glitch_windows_total",
          "rap_mc_survival"}) {
        EXPECT_TRUE(mc_names.count(required)) << required;
    }
}

}  // namespace
}  // namespace rap::flow
