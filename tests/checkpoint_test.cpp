// Checkpoint/resume contract tests: a killed exploration resumed from
// its last on-disk StoreCheckpoint must reproduce the uninterrupted
// pass's (states, edges, verdicts, witnesses) exactly — on both engine
// kinds — while corrupted files, crafted files whose checksum was
// recomputed over hostile contents, foreign structures, reconfigured
// initial markings and engine-kind mismatches are all refused loudly
// (std::runtime_error) instead of resuming as a silently wrong
// exploration.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "petri/checkpoint.hpp"
#include "petri/compiled.hpp"
#include "petri/parallel.hpp"
#include "petri/reachability.hpp"
#include "petri_fixtures.hpp"
#include "util/rng.hpp"

namespace rap::petri {
namespace {

using namespace testfx;

/// Exact-match comparison (tighter than the cross-engine differential):
/// a resumed pass continues the same engine's deterministic walk, so
/// even witness markings and traces must be identical.
void expect_identical(const Net& net, const MultiResult& full,
                      const MultiResult& resumed,
                      const std::string& context) {
    EXPECT_EQ(resumed.states_explored, full.states_explored) << context;
    EXPECT_EQ(resumed.edges_explored, full.edges_explored) << context;
    EXPECT_FALSE(resumed.truncated) << context;
    EXPECT_EQ(sorted(resumed.deadlocks), sorted(full.deadlocks))
        << context;
    EXPECT_EQ(violation_set(resumed.persistence_violations),
              violation_set(full.persistence_violations))
        << context;
    ASSERT_EQ(resumed.goals.size(), full.goals.size()) << context;
    for (std::size_t g = 0; g < full.goals.size(); ++g) {
        const auto& fg = full.goals[g];
        const auto& rg = resumed.goals[g];
        ASSERT_EQ(rg.found(), fg.found()) << context << " goal " << g;
        if (!fg.found()) continue;
        EXPECT_EQ(*rg.witness, *fg.witness) << context << " goal " << g;
        ASSERT_TRUE(rg.witness_trace.has_value()) << context;
        ASSERT_TRUE(fg.witness_trace.has_value()) << context;
        EXPECT_EQ(rg.witness_trace->firings.size(),
                  fg.witness_trace->firings.size())
            << context << " goal " << g;
        expect_replays(net, *rg.witness_trace, *rg.witness,
                       context + " goal " + std::to_string(g));
    }
}

std::string temp_path(const std::string& name) {
    return testing::TempDir() + name;
}

/// Runs `query` with checkpointing on and a stop hook that kills the
/// pass after `polls` cooperative-stop polls, leaving the last periodic
/// checkpoint on disk. Returns the partial (truncated) result.
MultiResult killed_run(const CompiledNet& compiled, const MultiQuery& query,
                       const std::string& path, std::size_t threads,
                       int polls, std::size_t every) {
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.checkpoint_path = path;
    options.checkpoint_every = every;
    auto count = std::make_shared<std::atomic<int>>(0);
    options.stop = [count, polls] { return ++*count > polls; };
    if (threads <= 1) {
        ReachabilityExplorer explorer(compiled, options);
        return explorer.run_query(query);
    }
    options.threads = threads;
    ParallelReachabilityExplorer explorer(compiled, options);
    return explorer.run_query(query);
}

TEST(Checkpoint, SequentialKillAndResumeMatchesUninterrupted) {
    const Fixture fixture = gap_fixture();  // deadlocks -> witness paths
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    ReachabilityOptions base;
    base.stop_at_first_match = false;
    ReachabilityExplorer uninterrupted(compiled, base);
    const auto reference = uninterrupted.run_query(bundle.query);
    ASSERT_FALSE(reference.truncated);

    // The gap model is 1904 states / 7808 edges; the sequential engine
    // polls the stop hook every 256 edges, so 12 polls kill the pass
    // about 40% in — after the head crossed the 256-state save cadence.
    const std::string path = temp_path("ckpt_seq_kill.ckpt");
    std::remove(path.c_str());
    const auto partial =
        killed_run(compiled, bundle.query, path, 1, 12, 256);
    ASSERT_TRUE(partial.truncated) << "kill did not interrupt the pass";
    ASSERT_LT(partial.states_explored, reference.states_explored)
        << "kill landed after exhaustion; nothing left to resume";

    const auto ckpt = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(path));
    ASSERT_GT(ckpt->record_count, 0u);
    ASSERT_LT(ckpt->record_count, reference.states_explored);

    ReachabilityOptions resume = base;
    resume.resume = ckpt;
    ReachabilityExplorer resumed(compiled, resume);
    const auto result = resumed.run_query(bundle.query);
    expect_identical(fixture.net, reference, result, "sequential resume");
}

TEST(Checkpoint, ParallelKillAndResumeMatchesUninterrupted) {
    // Large enough (~191k states) that 60 cooperative-stop polls always
    // land mid-pass, whatever the 4 workers' schedule looks like.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    ReachabilityOptions base;
    base.stop_at_first_match = false;
    base.threads = 4;
    ParallelReachabilityExplorer uninterrupted(compiled, base);
    const auto reference = uninterrupted.run_query(bundle.query);
    ASSERT_FALSE(reference.truncated);

    const std::string path = temp_path("ckpt_par_kill.ckpt");
    std::remove(path.c_str());
    const auto partial =
        killed_run(compiled, bundle.query, path, 4, 60, 1);
    ASSERT_TRUE(partial.truncated) << "kill did not interrupt the pass";
    ASSERT_LT(partial.states_explored, reference.states_explored)
        << "kill landed after exhaustion; nothing left to resume";

    const auto ckpt = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(path));
    ASSERT_EQ(ckpt->engine, StoreCheckpoint::Engine::kParallel);
    ASSERT_GT(ckpt->record_count, 0u);

    ReachabilityOptions resume = base;
    resume.resume = ckpt;
    ParallelReachabilityExplorer resumed(compiled, resume);
    const auto result = resumed.run_query(bundle.query);
    expect_identical(fixture.net, reference, result, "parallel resume");
}

TEST(Checkpoint, ResumedPassKeepsCheckpointingToTheNextFile) {
    // The nightly soak's shape: resume from one night's checkpoint while
    // writing the next night's. The resumed pass must both reproduce the
    // uninterrupted result and leave a fresh loadable checkpoint behind.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    ReachabilityOptions base;
    base.stop_at_first_match = false;
    ReachabilityExplorer uninterrupted(compiled, base);
    const auto reference = uninterrupted.run_query(bundle.query);

    const std::string first = temp_path("ckpt_chain_first.ckpt");
    const std::string second = temp_path("ckpt_chain_second.ckpt");
    std::remove(first.c_str());
    std::remove(second.c_str());
    const auto partial =
        killed_run(compiled, bundle.query, first, 1, 80, 1024);
    ASSERT_TRUE(partial.truncated);

    ReachabilityOptions resume = base;
    resume.resume = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(first));
    resume.checkpoint_path = second;
    resume.checkpoint_every = 4096;
    ReachabilityExplorer resumed(compiled, resume);
    const auto result = resumed.run_query(bundle.query);
    expect_identical(fixture.net, reference, result, "chained resume");

    const auto next = StoreCheckpoint::load(second);
    EXPECT_GT(next.record_count, resume.resume->record_count);
}

TEST(Checkpoint, CorruptedOrTruncatedFileRejectedLoudly) {
    const Fixture fixture = ring_fixture(6);  // 8 states, tiny + fast
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    const std::string path = temp_path("ckpt_corrupt.ckpt");
    std::remove(path.c_str());
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.checkpoint_path = path;
    options.checkpoint_every = 4;
    ReachabilityExplorer explorer(compiled, options);
    explorer.run_query(bundle.query);
    ASSERT_NO_THROW(StoreCheckpoint::load(path)) << "pristine file";

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);

    const std::string truncated = temp_path("ckpt_truncated.ckpt");
    {
        std::ofstream out(truncated, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_THROW(StoreCheckpoint::load(truncated), std::runtime_error);

    const std::string flipped = temp_path("ckpt_flipped.ckpt");
    {
        std::vector<char> bad = bytes;
        bad[bad.size() / 2] ^= 0x40;  // payload bit flip -> checksum
        std::ofstream out(flipped, std::ios::binary);
        out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    EXPECT_THROW(StoreCheckpoint::load(flipped), std::runtime_error);

    const std::string garbage = temp_path("ckpt_garbage.ckpt");
    {
        std::ofstream out(garbage, std::ios::binary);
        out << "this is not a checkpoint";
    }
    EXPECT_THROW(StoreCheckpoint::load(garbage), std::runtime_error);

    EXPECT_THROW(StoreCheckpoint::load(temp_path("ckpt_missing.ckpt")),
                 std::runtime_error);
}

TEST(Checkpoint, StructuralOrMarkingChangeRefusedOnResume) {
    const std::string path = temp_path("ckpt_structure.ckpt");
    std::remove(path.c_str());
    const Fixture source = ope_fixture(3, 3);
    const CompiledNet compiled(source.net);
    const QueryBundle bundle(source.net);
    killed_run(compiled, bundle.query, path, 1, 30, 512);
    const auto ckpt = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(path));

    // Different structure: the digest mismatch must refuse the resume.
    const Fixture other = ring_fixture(4);
    const CompiledNet other_compiled(other.net);
    const QueryBundle other_bundle(other.net);
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.resume = ckpt;
    ReachabilityExplorer foreign(other_compiled, options);
    EXPECT_THROW(foreign.run_query(other_bundle.query),
                 std::runtime_error);

    // Same structure, reconfigured initial marking (the gap model flips
    // one ring's token): record 0 no longer matches, refused separately.
    const Fixture gap = gap_fixture();
    const CompiledNet gap_compiled(gap.net);
    if (gap_compiled.structure_digest() == compiled.structure_digest()) {
        const QueryBundle gap_bundle(gap.net);
        ReachabilityExplorer reconfigured(gap_compiled, options);
        EXPECT_THROW(reconfigured.run_query(gap_bundle.query),
                     std::runtime_error);
    }
}

TEST(Checkpoint, EngineKindMismatchRefused) {
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    const std::string seq_path = temp_path("ckpt_kind_seq.ckpt");
    const std::string par_path = temp_path("ckpt_kind_par.ckpt");
    std::remove(seq_path.c_str());
    std::remove(par_path.c_str());
    killed_run(compiled, bundle.query, seq_path, 1, 30, 512);
    killed_run(compiled, bundle.query, par_path, 4, 60, 1);
    const auto seq_ckpt = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(seq_path));
    const auto par_ckpt = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(par_path));
    ASSERT_EQ(seq_ckpt->engine, StoreCheckpoint::Engine::kSequential);
    ASSERT_EQ(par_ckpt->engine, StoreCheckpoint::Engine::kParallel);

    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.resume = par_ckpt;
    ReachabilityExplorer sequential(compiled, options);
    EXPECT_THROW(sequential.run_query(bundle.query), std::runtime_error);

    options.resume = seq_ckpt;
    options.threads = 4;
    ParallelReachabilityExplorer parallel(compiled, options);
    EXPECT_THROW(parallel.run_query(bundle.query), std::runtime_error);

    // A 1-thread "parallel" pass IS the sequential code path, so it
    // accepts the sequential checkpoint and refuses the parallel one.
    options.threads = 1;
    ParallelReachabilityExplorer delegated(compiled, options);
    EXPECT_NO_THROW(delegated.run_query(bundle.query));
    options.resume = par_ckpt;
    ParallelReachabilityExplorer delegated_par(compiled, options);
    EXPECT_THROW(delegated_par.run_query(bundle.query),
                 std::runtime_error);
}

// -- crafted files ---------------------------------------------------------
//
// Each case below damages a real checkpoint and recomputes its trailing
// checksum, so the damage reaches the section parser / resume checks
// instead of being caught by the checksum first.

std::vector<std::uint64_t> read_words(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto bytes = static_cast<std::size_t>(in.tellg());
    std::vector<std::uint64_t> words(bytes / sizeof(std::uint64_t));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(words.data()),
            static_cast<std::streamsize>(bytes));
    return words;
}

/// Writes `words` with a freshly recomputed checksum word at the end.
void write_resealed(const std::string& path,
                    std::vector<std::uint64_t> words) {
    words.back() = hash_marking_words(words.data(), words.size() - 1);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(words.data()),
              static_cast<std::streamsize>(words.size() *
                                           sizeof(std::uint64_t)));
}

/// A killed pass's checkpoint of the gap model on either engine kind
/// (threads == 1: sequential), plus what a resume needs. File names carry
/// the running test's name: ctest runs the cases as parallel processes.
struct CraftBase {
    Fixture fixture = gap_fixture();
    CompiledNet compiled{fixture.net};
    QueryBundle bundle{fixture.net};
    std::size_t threads;
    StoreCheckpoint ckpt;

    explicit CraftBase(std::size_t t) : threads(t) {
        const std::string path = file("base");
        std::remove(path.c_str());
        if (threads == 1) {
            killed_run(compiled, bundle.query, path, 1, 12, 256);
        } else {
            killed_run(compiled, bundle.query, path, threads, 20, 1);
        }
        ckpt = StoreCheckpoint::load(path);
    }

    /// Saves `crafted` (save() reseals the checksum), loads it back and
    /// resumes from it on this engine kind.
    MultiResult resume_from(const StoreCheckpoint& crafted) const {
        const std::string path = file("crafted");
        crafted.save(path);
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.threads = threads;
        options.resume = std::make_shared<const StoreCheckpoint>(
            StoreCheckpoint::load(path));
        return ParallelReachabilityExplorer(compiled, options)
            .run_query(bundle.query);
    }

    std::string file(const std::string& role) const {
        return temp_path(
            std::string("ckpt_") +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(threads) + "_" + role + ".ckpt");
    }

    /// Meta word 0 of record `id`: the (via << 32 | parent) witness link.
    static std::uint64_t& link(StoreCheckpoint& c, std::uint64_t id) {
        return c.records[id * c.record_stride() + c.marking_words];
    }
};

TEST(Checkpoint, OverflowingSectionLengthsRejectedAsRuntimeError) {
    // Section counts whose word total wraps uint64 must fail the length
    // check, not reach an allocation (std::length_error / bad_alloc).
    const CraftBase base(1);
    const std::string path = temp_path("ckpt_craft_lengths.ckpt");
    base.ckpt.save(path);
    const std::vector<std::uint64_t> pristine = read_words(path);
    ASSERT_NO_THROW(StoreCheckpoint::load(path));

    // Header words: [4] marking|meta words, [5] record_count, [10..13]
    // frontier/goal/deadlock/violation counts, [20] records offset.
    // violations_n * 2 wraps back onto the real violation words: an
    // unchecked sum would accept it and then die in resize().
    std::vector<std::uint64_t> words = pristine;
    words[13] += std::uint64_t{1} << 63;
    write_resealed(path, words);
    EXPECT_THROW(StoreCheckpoint::load(path), std::runtime_error);

    // frontier_n + goals_n wraps onto the real sum: an unchecked sum
    // would accept it and the frontier read would ask for ~2^63 ids.
    words = pristine;
    words[10] += std::uint64_t{1} << 63;
    words[11] += std::uint64_t{1} << 63;
    write_resealed(path, words);
    EXPECT_THROW(StoreCheckpoint::load(path), std::runtime_error);

    // record_count * stride wraps onto the real record run: declare a
    // 2-word stride and 2^63 extra records (one record word moves into
    // the deadlock section first when the run has odd length).
    words = pristine;
    std::uint64_t run = words.size() - 1 - words[20];
    if (run % 2 != 0) {
        ++words[12];
        ++words[20];
        --run;
    }
    words[4] = (std::uint64_t{1} << 32) | 1;
    words[5] = run / 2 + (std::uint64_t{1} << 63);
    write_resealed(path, words);
    EXPECT_THROW(StoreCheckpoint::load(path), std::runtime_error);
}

TEST(Checkpoint, OutOfRangeIdsRefusedOnResume) {
    // Goal hits, deadlock ids, violation ids and frontier ids must all
    // name records the checkpoint actually carries.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const CraftBase base(threads);
        const auto beyond = static_cast<std::uint32_t>(base.ckpt.record_count);
        const std::string engine = threads == 1 ? "seq" : "par";

        StoreCheckpoint crafted = base.ckpt;
        crafted.goal_hits[1] = beyond;
        EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
            << engine << " goal hit";

        crafted = base.ckpt;
        crafted.deadlocks.push_back(beyond);
        EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
            << engine << " deadlock";

        crafted = base.ckpt;
        crafted.violations.push_back({beyond, 0, 0, 0});
        EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
            << engine << " violation";

        if (threads > 1) {
            crafted = base.ckpt;
            ASSERT_FALSE(crafted.frontier.empty());
            crafted.frontier.back() = beyond;
            EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
                << engine << " frontier";
        }
        // The untouched checkpoint still resumes.
        EXPECT_NO_THROW(base.resume_from(base.ckpt)) << engine;
    }
}

TEST(Checkpoint, ParentLinkNotBeforeItsChildRefusedOnResume) {
    // BFS discovery order puts every parent before its child; a record
    // naming itself (or a later record) as its parent would make trace
    // rebuilding loop forever, so resume refuses it up front.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const CraftBase base(threads);
        ASSERT_GT(base.ckpt.record_count, 2u);
        const std::uint64_t id = base.ckpt.record_count - 1;
        for (const std::uint64_t parent : {id, id + 1}) {
            StoreCheckpoint crafted = base.ckpt;
            std::uint64_t& link = CraftBase::link(crafted, id);
            link = (link & 0xFFFFFFFF00000000ULL) | parent;
            EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
                << threads << "t parent " << parent;
        }
        // The root must stay parentless.
        StoreCheckpoint crafted = base.ckpt;
        CraftBase::link(crafted, 0) = 0;
        EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
            << threads << "t root";
    }
}

TEST(Checkpoint, OutOfRangeTransitionRefusedOnResume) {
    // Witness links and violations name transitions of the net; an id at
    // or past transition_count() would index past the name table.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const CraftBase base(threads);
        const auto transitions =
            static_cast<std::uint64_t>(base.compiled.transition_count());

        StoreCheckpoint crafted = base.ckpt;
        std::uint64_t& link =
            CraftBase::link(crafted, crafted.record_count - 1);
        link = (transitions << 32) | (link & 0xFFFFFFFFULL);
        EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
            << threads << "t link";

        crafted = base.ckpt;
        crafted.violations.push_back(
            {0, 0, static_cast<std::uint32_t>(transitions), 0});
        EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
            << threads << "t violation";
    }
}

TEST(Checkpoint, DepthWordOffItsWitnessLinkRefusedOnResume) {
    // The parallel engine's canonical-min link update trusts each
    // record's depth word: a record claiming the next layer's depth gets
    // its witness link rewritten on a duplicate edge. Claimed by the
    // root, the update would compare against the parent of a parentless
    // link (an id past the store); claimed by any other record, it could
    // close a link cycle. The one-register ring's state graph is a single
    // cycle whose last layer leads back to the root, so a resumed first
    // layer rediscovers it.
    const Fixture fixture = ring_fixture(1);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);
    const std::string path = temp_path("ckpt_depth_base.ckpt");
    std::remove(path.c_str());
    // Never stopped: the file keeps the last layer boundary of the pass.
    killed_run(compiled, bundle.query, path, 4, INT32_MAX, 1);
    const StoreCheckpoint base = StoreCheckpoint::load(path);
    ASSERT_EQ(base.engine, StoreCheckpoint::Engine::kParallel);
    ASSERT_GT(base.record_count, 2u);

    auto leads_to_root = [&](std::uint32_t id) {
        const std::size_t words = base.marking_words;
        std::vector<std::uint64_t> enabled(compiled.enabled_words());
        compiled.enabled_set(base.record(id), enabled.data());
        for (std::uint32_t t = 0; t < compiled.transition_count(); ++t) {
            if (((enabled[t / 64] >> (t % 64)) & 1) == 0) continue;
            std::vector<std::uint64_t> next(base.record(id),
                                            base.record(id) + words);
            compiled.fire(next.data(), TransitionId{t});
            if (std::equal(next.begin(), next.end(), base.record(0))) {
                return true;
            }
        }
        return false;
    };
    ASSERT_TRUE(std::any_of(base.frontier.begin(), base.frontier.end(),
                            leads_to_root));

    auto resume = [&](const StoreCheckpoint& crafted) {
        const std::string crafted_path = temp_path("ckpt_depth_crafted.ckpt");
        crafted.save(crafted_path);
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.threads = 4;
        options.resume = std::make_shared<const StoreCheckpoint>(
            StoreCheckpoint::load(crafted_path));
        return ParallelReachabilityExplorer(compiled, options)
            .run_query(bundle.query);
    };
    auto depth_word = [](StoreCheckpoint& c, std::uint64_t id)
        -> std::uint64_t& {
        return c.records[id * c.record_stride() + c.marking_words + 1];
    };

    StoreCheckpoint crafted = base;
    depth_word(crafted, 0) = base.depth + 1;
    EXPECT_THROW(resume(crafted), std::runtime_error) << "root";

    crafted = base;
    depth_word(crafted, base.record_count - 1) += 1;
    EXPECT_THROW(resume(crafted), std::runtime_error) << "deeper record";

    crafted = base;
    crafted.depth += 1;
    EXPECT_THROW(resume(crafted), std::runtime_error) << "frontier depth";

    EXPECT_NO_THROW(resume(base));
}

TEST(Checkpoint, MutatedCheckpointsResumeOrAreRefused) {
    // Seeded mutation fuzzer over real checkpoints of both engine kinds:
    // bit flips and words overwritten with boundary values, resealed so
    // the damage reaches the section parser and the resume checks. Every
    // case must resume to completion or throw std::runtime_error
    // (ExplorationAborted included) — never crash, hang or throw
    // anything else.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const CraftBase base(threads);
        const std::string path = base.file("fuzz");
        base.ckpt.save(path);
        const std::vector<std::uint64_t> pristine = read_words(path);
        const std::uint64_t records_off = pristine[20];
        const std::uint64_t count = base.ckpt.record_count;
        const std::uint64_t stride = base.ckpt.record_stride();
        const std::uint64_t mwords = base.ckpt.marking_words;
        const std::uint64_t values[] = {0,          1,         UINT32_MAX,
                                        UINT64_MAX, count - 1, count + 1};

        std::size_t resumed = 0;
        std::size_t refused = 0;
        for (std::uint64_t seed = 1; seed <= 300; ++seed) {
            util::Rng rng(seed * 8 + threads);
            std::vector<std::uint64_t> words = pristine;
            const int mutations = static_cast<int>(rng.range(1, 3));
            for (int m = 0; m < mutations; ++m) {
                // A third of the hits land in the header and id sections,
                // a third on a record's meta words (witness link, depth),
                // the rest anywhere before the checksum word.
                std::uint64_t at = 0;
                switch (rng.below(3)) {
                    case 0: at = rng.below(records_off); break;
                    case 1:
                        at = records_off + rng.below(count) * stride +
                             mwords + rng.below(stride - mwords);
                        break;
                    default: at = rng.below(words.size() - 1); break;
                }
                std::uint64_t& word = words[at];
                const std::uint64_t kind = rng.below(7);
                if (kind == 6) {
                    word ^= std::uint64_t{1} << rng.below(64);
                } else {
                    word = values[kind];
                }
            }
            write_resealed(path, words);
            ReachabilityOptions options;
            options.stop_at_first_match = false;
            options.threads = threads;
            // Damaged records can seed states the real pass never sees.
            options.max_states = 8 * count;
            try {
                options.resume = std::make_shared<const StoreCheckpoint>(
                    StoreCheckpoint::load(path));
                ParallelReachabilityExplorer(base.compiled, options)
                    .run_query(base.bundle.query);
                ++resumed;
            } catch (const std::runtime_error&) {
                ++refused;
            } catch (const std::exception& e) {
                ADD_FAILURE() << threads << "t seed " << seed << " threw "
                              << e.what();
            }
        }
        EXPECT_GT(refused, 0u) << threads << "t";
        EXPECT_GT(resumed, 0u) << threads << "t";
    }
}

}  // namespace
}  // namespace rap::petri
