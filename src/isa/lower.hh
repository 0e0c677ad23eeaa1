/**
 * @file
 * Lowering: compile a scheduling problem into a PIM command stream.
 *
 * The pass is deterministic and total — the same ScheduleDesc always
 * produces the same instruction sequence, and validateStream() checks
 * a stream against exactly this lowering. Layout of the emitted
 * program:
 *
 *   CFG_STAGE s=0..N-1            replicas + base service time
 *   for each drain chunk c:
 *     BARRIER  c                  pipeline drains before the chunk
 *     for each micro-batch g in the chunk (global index):
 *       for each stage s:
 *         NOC_RECV s,g            when s > 0
 *         MVM      s,g            compute part (full time when the
 *                                 write-retry model is off)
 *         ROW_WRITE s,g           write-verify part, nominal single
 *                                 attempt (retry model on only)
 *         REFRESH  s,g            when (g+1) % refreshEvery == 0
 *         NOC_SEND s,g            when s < N-1
 *   SYNC                          operand = command count before it
 *
 * Invariants the replay contract depends on: MVM/ROW_WRITE durations
 * are exact IEEE-754 splits of the stage base time (base*(1-wf) and
 * base*wf, matching sim::makeWriteRetrySampler bit for bit), REFRESH
 * uses the global micro-batch index so chunked regimes refresh at
 * the same points as a live event run, and chunks truncated by the
 * IntraBatch batch structure are simply not emitted (neither engine
 * executes them).
 */

#ifndef GOPIM_ISA_LOWER_HH
#define GOPIM_ISA_LOWER_HH

#include <string>

#include "isa/isa.hh"

namespace gopim::isa {

/**
 * Lower `desc` into its canonical command stream. Panics on an
 * invalid desc (use desc.validate() first for user-supplied input).
 */
CommandStream lowerSchedule(const ScheduleDesc &desc,
                            std::string label = "");

} // namespace gopim::isa

#endif // GOPIM_ISA_LOWER_HH
