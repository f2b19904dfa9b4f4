// Checkpoint/resume contract tests: a killed exploration resumed from
// its last on-disk StoreCheckpoint must reproduce the uninterrupted
// pass's (states, edges, verdicts, witnesses) exactly, while corrupted
// files, crafted files whose checksum was recomputed over hostile
// contents, foreign structures, reconfigured initial markings, old
// format versions and foreign engine kinds are all refused loudly
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
#include "petri/reachability.hpp"
#include "petri_fixtures.hpp"
#include "util/rng.hpp"

namespace rap::petri {
namespace {

using namespace testfx;

/// Exact-match comparison: a resumed pass continues the engine's
/// deterministic walk, so even witness markings must be identical.
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
                       const std::string& path, int polls,
                       std::size_t every) {
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.checkpoint_path = path;
    options.checkpoint_every = every;
    auto count = std::make_shared<std::atomic<int>>(0);
    options.stop = [count, polls] { return ++*count > polls; };
    ReachabilityExplorer explorer(compiled, options);
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
    const auto partial = killed_run(compiled, bundle.query, path, 12, 256);
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
    const auto partial = killed_run(compiled, bundle.query, first, 80, 1024);
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
    killed_run(compiled, bundle.query, path, 30, 512);
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

TEST(Checkpoint, EngineKindMismatchRefused) {
    // Only the sequential engine's checkpoints resume. A file of any
    // other engine kind (1 was the retired parallel engine's) is refused
    // on resume, and a file of the previous format version — whose
    // header still carried that engine's cursor — is refused on load.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    const std::string path = temp_path("ckpt_kind.ckpt");
    std::remove(path.c_str());
    killed_run(compiled, bundle.query, path, 30, 512);
    const StoreCheckpoint ckpt = StoreCheckpoint::load(path);
    ASSERT_EQ(ckpt.engine, StoreCheckpoint::Engine::kSequential);

    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.resume = std::make_shared<const StoreCheckpoint>(ckpt);
    EXPECT_NO_THROW(
        ReachabilityExplorer(compiled, options).run_query(bundle.query));

    StoreCheckpoint foreign = ckpt;
    foreign.engine = static_cast<StoreCheckpoint::Engine>(1);
    const std::string foreign_path = temp_path("ckpt_kind_foreign.ckpt");
    foreign.save(foreign_path);
    options.resume = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(foreign_path));
    EXPECT_THROW(
        ReachabilityExplorer(compiled, options).run_query(bundle.query),
        std::runtime_error);

    // Header word [1] is the format version.
    const std::string old_path = temp_path("ckpt_kind_old_version.ckpt");
    std::vector<std::uint64_t> words = read_words(path);
    ASSERT_EQ(words[1], 2u);
    words[1] = 1;
    write_resealed(old_path, words);
    EXPECT_THROW(StoreCheckpoint::load(old_path), std::runtime_error);
}

/// A killed pass's checkpoint of the gap model, plus what a resume
/// needs. File names carry the running test's name: ctest runs the cases
/// as parallel processes.
struct CraftBase {
    Fixture fixture = gap_fixture();
    CompiledNet compiled{fixture.net};
    QueryBundle bundle{fixture.net};
    StoreCheckpoint ckpt;

    CraftBase() {
        const std::string path = file("base");
        std::remove(path.c_str());
        killed_run(compiled, bundle.query, path, 12, 256);
        ckpt = StoreCheckpoint::load(path);
    }

    /// Saves `crafted` (save() reseals the checksum), loads it back and
    /// resumes from it.
    MultiResult resume_from(const StoreCheckpoint& crafted) const {
        const std::string path = file("crafted");
        crafted.save(path);
        ReachabilityOptions options;
        options.stop_at_first_match = false;
        options.resume = std::make_shared<const StoreCheckpoint>(
            StoreCheckpoint::load(path));
        return ReachabilityExplorer(compiled, options)
            .run_query(bundle.query);
    }

    std::string file(const std::string& role) const {
        return temp_path(
            std::string("ckpt_") +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + role + ".ckpt");
    }

    /// Meta word 0 of record `id`: the (via << 32 | parent) witness link.
    static std::uint64_t& link(StoreCheckpoint& c, std::uint64_t id) {
        return c.records[id * c.record_stride() + c.marking_words];
    }
};

TEST(Checkpoint, OverflowingSectionLengthsRejectedAsRuntimeError) {
    // Section counts whose word total wraps uint64 must fail the length
    // check, not reach an allocation (std::length_error / bad_alloc).
    const CraftBase base;
    const std::string path = temp_path("ckpt_craft_lengths.ckpt");
    base.ckpt.save(path);
    const std::vector<std::uint64_t> pristine = read_words(path);
    ASSERT_NO_THROW(StoreCheckpoint::load(path));

    // Header words: [4] marking|meta words, [5] record_count, [9..11]
    // goal/deadlock/violation counts, [18] records offset.
    // violations_n * 2 wraps back onto the real violation words: an
    // unchecked sum would accept it and then die in resize().
    std::vector<std::uint64_t> words = pristine;
    words[11] += std::uint64_t{1} << 63;
    write_resealed(path, words);
    EXPECT_THROW(StoreCheckpoint::load(path), std::runtime_error);

    // goals_n + deadlocks_n wraps onto the real sum: an unchecked sum
    // would accept it and the goal read would ask for ~2^63 ids.
    words = pristine;
    words[9] += std::uint64_t{1} << 63;
    words[10] += std::uint64_t{1} << 63;
    write_resealed(path, words);
    EXPECT_THROW(StoreCheckpoint::load(path), std::runtime_error);

    // record_count * stride wraps onto the real record run: declare a
    // 2-word stride and 2^63 extra records (one record word moves into
    // the deadlock section first when the run has odd length).
    words = pristine;
    std::uint64_t run = words.size() - 1 - words[18];
    if (run % 2 != 0) {
        ++words[10];
        ++words[18];
        --run;
    }
    words[4] = (std::uint64_t{1} << 32) | 1;
    words[5] = run / 2 + (std::uint64_t{1} << 63);
    write_resealed(path, words);
    EXPECT_THROW(StoreCheckpoint::load(path), std::runtime_error);
}

TEST(Checkpoint, OutOfRangeIdsRefusedOnResume) {
    // The cursor, goal hits, deadlock ids and violation ids must all
    // name records the checkpoint actually carries.
    const CraftBase base;
    const auto beyond = static_cast<std::uint32_t>(base.ckpt.record_count);

    StoreCheckpoint crafted = base.ckpt;
    crafted.goal_hits[1] = beyond;
    EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
        << "goal hit";

    crafted = base.ckpt;
    crafted.deadlocks.push_back(beyond);
    EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
        << "deadlock";

    crafted = base.ckpt;
    crafted.violations.push_back({beyond, 0, 0});
    EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
        << "violation";

    crafted = base.ckpt;
    crafted.head = std::uint64_t{beyond} + 1;
    EXPECT_THROW(base.resume_from(crafted), std::runtime_error) << "head";

    crafted = base.ckpt;
    crafted.next_layer_begin = std::uint64_t{beyond} + 1;
    EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
        << "layer watermark";

    // The untouched checkpoint still resumes.
    EXPECT_NO_THROW(base.resume_from(base.ckpt));
}

TEST(Checkpoint, ParentLinkNotBeforeItsChildRefusedOnResume) {
    // BFS discovery order puts every parent before its child; a record
    // naming itself (or a later record) as its parent would make trace
    // rebuilding loop forever, so resume refuses it up front.
    const CraftBase base;
    ASSERT_GT(base.ckpt.record_count, 2u);
    const std::uint64_t id = base.ckpt.record_count - 1;
    for (const std::uint64_t parent : {id, id + 1}) {
        StoreCheckpoint crafted = base.ckpt;
        std::uint64_t& link = CraftBase::link(crafted, id);
        link = (link & 0xFFFFFFFF00000000ULL) | parent;
        EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
            << "parent " << parent;
    }
    // The root must stay parentless.
    StoreCheckpoint crafted = base.ckpt;
    CraftBase::link(crafted, 0) = 0;
    EXPECT_THROW(base.resume_from(crafted), std::runtime_error) << "root";
}

TEST(Checkpoint, OutOfRangeTransitionRefusedOnResume) {
    // Witness links and violations name transitions of the net; an id at
    // or past transition_count() would index past the name table.
    const CraftBase base;
    const auto transitions =
        static_cast<std::uint64_t>(base.compiled.transition_count());

    StoreCheckpoint crafted = base.ckpt;
    std::uint64_t& link = CraftBase::link(crafted, crafted.record_count - 1);
    link = (transitions << 32) | (link & 0xFFFFFFFFULL);
    EXPECT_THROW(base.resume_from(crafted), std::runtime_error) << "link";

    crafted = base.ckpt;
    crafted.violations.push_back(
        {0, static_cast<std::uint32_t>(transitions), 0});
    EXPECT_THROW(base.resume_from(crafted), std::runtime_error)
        << "violation";
}

TEST(Checkpoint, MutatedCheckpointsResumeOrAreRefused) {
    // Seeded mutation fuzzer over a real checkpoint: bit flips and words
    // overwritten with boundary values, resealed so the damage reaches
    // the section parser and the resume checks. Every case must resume
    // to completion or throw std::runtime_error (ExplorationAborted
    // included) — never crash, hang or throw anything else.
    const CraftBase base;
    const std::string path = base.file("fuzz");
    base.ckpt.save(path);
    const std::vector<std::uint64_t> pristine = read_words(path);
    const std::uint64_t records_off = pristine[18];
    const std::uint64_t count = base.ckpt.record_count;
    const std::uint64_t stride = base.ckpt.record_stride();
    const std::uint64_t mwords = base.ckpt.marking_words;
    const std::uint64_t values[] = {0,          1,         UINT32_MAX,
                                    UINT64_MAX, count - 1, count + 1};

    std::size_t resumed = 0;
    std::size_t refused = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        util::Rng rng(seed * 8 + 1);
        std::vector<std::uint64_t> words = pristine;
        const int mutations = static_cast<int>(rng.range(1, 3));
        for (int m = 0; m < mutations; ++m) {
            // A third of the hits land in the header and id sections, a
            // third on a record's meta word (the witness link), the rest
            // anywhere before the checksum word.
            std::uint64_t at = 0;
            switch (rng.below(3)) {
                case 0: at = rng.below(records_off); break;
                case 1:
                    at = records_off + rng.below(count) * stride + mwords +
                         rng.below(stride - mwords);
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
        // Damaged records can seed states the real pass never sees.
        options.max_states = 8 * count;
        try {
            options.resume = std::make_shared<const StoreCheckpoint>(
                StoreCheckpoint::load(path));
            ReachabilityExplorer(base.compiled, options)
                .run_query(base.bundle.query);
            ++resumed;
        } catch (const std::runtime_error&) {
            ++refused;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "seed " << seed << " threw " << e.what();
        }
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GT(resumed, 0u);
}

}  // namespace
}  // namespace rap::petri
