/**
 * @file
 * Bit-identity of the shared decode: element i of decodeOps() must be
 * exactly the i-th Cursor::next() op — every field — and
 * decodeRunShape() must be that decode over the run's stream. Every
 * pipeline fetches from such an array, shared by all runs of a shape,
 * so any divergence here would silently change simulated results.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/batch.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/stream.hh"

namespace wavedyn
{
namespace
{

void
expectSameOp(const MicroOp &a, const MicroOp &b, std::uint64_t i,
             const std::string &who)
{
    ASSERT_EQ(a.pc, b.pc) << who << " @" << i;
    ASSERT_EQ(a.effAddr, b.effAddr) << who << " @" << i;
    ASSERT_EQ(a.dep1, b.dep1) << who << " @" << i;
    ASSERT_EQ(a.dep2, b.dep2) << who << " @" << i;
    ASSERT_EQ(static_cast<int>(a.cls), static_cast<int>(b.cls))
        << who << " @" << i;
    ASSERT_EQ(a.branchTaken, b.branchTaken) << who << " @" << i;
    ASSERT_EQ(a.branchTarget, b.branchTarget) << who << " @" << i;
}

/**
 * Decode a stream of 2^13 ops plus 300 past its nominal end (where
 * indices wrap, as a pipeline's fetch-ahead reads them) and check
 * every element against a private cursor's sequence.
 */
void
expectDecodeMatchesCursor(const BenchmarkProfile &profile,
                          const std::string &who)
{
    const std::uint64_t total = 1 << 13;
    const std::uint64_t count = total + 300;
    InstructionStream stream(profile, total);
    const std::vector<MicroOp> ops = decodeOps(stream, count);
    ASSERT_EQ(ops.size(), count) << who;
    InstructionStream::Cursor cursor(stream);
    for (std::uint64_t i = 0; i < count; ++i)
        expectSameOp(ops[i], cursor.next(), i, who);
}

TEST(SharedDecode, MatchesCursorOnEveryFamily)
{
    for (WorkloadFamily f : allFamilies())
        expectDecodeMatchesCursor(ScenarioGenerator(f, 7).generate(0),
                                  familyName(f));
}

TEST(SharedDecode, MatchesCursorOnPaperProfiles)
{
    for (const char *name : {"gcc", "mcf"})
        expectDecodeMatchesCursor(benchmarkByName(name), name);
}

TEST(SharedDecode, RunShapeDecodesTheRunStream)
{
    // 16 intervals of 120: a 1920-op body, a 240-op warmup, and the
    // stream's time base is warmup + body.
    const BenchmarkProfile &gcc = benchmarkByName("gcc");
    const std::vector<MicroOp> ops = decodeRunShape(gcc, 16, 120, 64);
    ASSERT_EQ(ops.size(), 240u + 1920u + 64u);
    InstructionStream stream(gcc, 240 + 1920);
    InstructionStream::Cursor cursor(stream);
    for (std::uint64_t i = 0; i < ops.size(); ++i)
        expectSameOp(ops[i], cursor.next(), i, "gcc");
}

} // namespace
} // namespace wavedyn
