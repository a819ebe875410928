/**
 * @file
 * Field-by-field RunResult equality, the one comparator behind every
 * bit-identity gate in the suite (engine parity, sweep determinism,
 * capture/replay, compare runs). It covers everything a result
 * carries except the observability event stream: the job kind, label,
 * kernel digest, reference-check outcome, every LaunchStats field
 * (the host-side plan-cache and idle-skip counters included), every
 * TraceAnalysis field, and each compare entry's mode and stats.
 * Doubles are compared by bit pattern, so "equal" means bit-identical.
 */

#ifndef IWC_TESTS_RUN_RESULT_EQ_HH
#define IWC_TESTS_RUN_RESULT_EQ_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "run/run.hh"

namespace iwc::testsupport
{

/** Every LaunchStats field, merged EU counters included. */
inline void
expectStatsEqual(const gpu::LaunchStats &a, const gpu::LaunchStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles) << what;
    EXPECT_EQ(a.eu.instructions, b.eu.instructions) << what;
    EXPECT_EQ(a.eu.aluInstructions, b.eu.aluInstructions) << what;
    EXPECT_EQ(a.eu.sendInstructions, b.eu.sendInstructions) << what;
    EXPECT_EQ(a.eu.ctrlInstructions, b.eu.ctrlInstructions) << what;
    EXPECT_EQ(a.eu.sumActiveLanes, b.eu.sumActiveLanes) << what;
    EXPECT_EQ(a.eu.sumSimdWidth, b.eu.sumSimdWidth) << what;
    EXPECT_EQ(a.eu.euCyclesByMode, b.eu.euCyclesByMode) << what;
    EXPECT_EQ(a.eu.utilBins, b.eu.utilBins) << what;
    EXPECT_EQ(a.eu.memMessages, b.eu.memMessages) << what;
    EXPECT_EQ(a.eu.memLines, b.eu.memLines) << what;
    EXPECT_EQ(a.eu.slmMessages, b.eu.slmMessages) << what;
    EXPECT_EQ(a.eu.sccSwizzledLanes, b.eu.sccSwizzledLanes) << what;
    EXPECT_EQ(a.eu.issueSlotsUsed, b.eu.issueSlotsUsed) << what;
    EXPECT_EQ(a.eu.threadsRetired, b.eu.threadsRetired) << what;
    EXPECT_EQ(a.fpuBusyCycles, b.fpuBusyCycles) << what;
    EXPECT_EQ(a.emBusyCycles, b.emBusyCycles) << what;
    EXPECT_EQ(a.l3Hits, b.l3Hits) << what;
    EXPECT_EQ(a.l3Misses, b.l3Misses) << what;
    EXPECT_EQ(a.llcHits, b.llcHits) << what;
    EXPECT_EQ(a.llcMisses, b.llcMisses) << what;
    EXPECT_EQ(a.dramLines, b.dramLines) << what;
    EXPECT_EQ(a.dcLines, b.dcLines) << what;
    EXPECT_EQ(a.slmAccesses, b.slmAccesses) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.avgLinesPerMessage),
              std::bit_cast<std::uint64_t>(b.avgLinesPerMessage))
        << what;
    EXPECT_EQ(a.planCacheHits, b.planCacheHits) << what;
    EXPECT_EQ(a.planCacheMisses, b.planCacheMisses) << what;
    EXPECT_EQ(a.idleCyclesSkipped, b.idleCyclesSkipped) << what;
    EXPECT_EQ(a.idleSkips, b.idleSkips) << what;
    EXPECT_EQ(a.workgroups, b.workgroups) << what;
    EXPECT_EQ(a.threads, b.threads) << what;
}

/** See file comment. */
inline void
expectResultsEqual(const run::RunResult &a, const run::RunResult &b,
                   const std::string &what)
{
    EXPECT_EQ(a.kind, b.kind) << what;
    EXPECT_EQ(a.label, b.label) << what;
    EXPECT_EQ(a.kernelDigest, b.kernelDigest) << what;
    EXPECT_EQ(a.checked, b.checked) << what;
    EXPECT_EQ(a.checkOk, b.checkOk) << what;
    expectStatsEqual(a.stats, b.stats, what);
    EXPECT_EQ(a.analysis.records, b.analysis.records) << what;
    EXPECT_EQ(a.analysis.sumActiveLanes, b.analysis.sumActiveLanes) << what;
    EXPECT_EQ(a.analysis.sumSimdWidth, b.analysis.sumSimdWidth) << what;
    EXPECT_EQ(a.analysis.euCycles, b.analysis.euCycles) << what;
    EXPECT_EQ(a.analysis.utilBins, b.analysis.utilBins) << what;
    EXPECT_EQ(a.analysis.aluRecords, b.analysis.aluRecords) << what;
    EXPECT_EQ(a.analysis.sccSwizzledLanes, b.analysis.sccSwizzledLanes)
        << what;
    ASSERT_EQ(a.compare.size(), b.compare.size()) << what;
    for (std::size_t i = 0; i < a.compare.size(); ++i) {
        const std::string entry = what + " compare entry " +
                                  std::to_string(i);
        EXPECT_EQ(a.compare[i].mode, b.compare[i].mode) << entry;
        expectStatsEqual(a.compare[i].stats, b.compare[i].stats, entry);
    }
}

} // namespace iwc::testsupport

#endif // IWC_TESTS_RUN_RESULT_EQ_HH
