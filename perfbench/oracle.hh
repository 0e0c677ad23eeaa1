/**
 * @file
 * Output oracle. Grid cells are compared field by field on the
 * fields that define a run's outcome; serve and router responses are
 * compared by the bytes of their stable-envelope line with the
 * request id factored out, so one expected digest covers every
 * repeat of a request template. Expected digests for the default
 * seed are committed under golden/; other seeds are checked against
 * a serial in-process recomputation.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <cstdint>
#include <map>
#include <string>

#include "core/result.hh"

namespace perfbench {

/** Placeholder the request id is replaced with before digesting. */
inline constexpr const char *kIdPlaceholder = "@ID@";

/**
 * Field-by-field digest of a grid cell, joined by ':': makespanNs,
 * energyPj and eventsProcessed exactly (doubles as their bit
 * patterns), and the per-stage idleFraction and blockedNs vectors as
 * digests of their bit patterns.
 */
std::string cellDigest(const gopim::core::RunResult &run);

/** "" when equal, else the name of the first field that differs. */
std::string cellMismatch(const std::string &expected,
                         const std::string &actual);

/** `line` with its first `"id":"<id>"` member set to the placeholder. */
std::string normalizeResponse(const std::string &line,
                              const std::string &id);

/** Hex FNV-1a digest of normalizeResponse(line, id). */
std::string responseDigest(const std::string &line, const std::string &id);

/** Expected digests of one workload at one benchmark seed. */
struct Golden
{
    uint64_t seed = 0;
    std::map<std::string, std::string> digests;
};

/** Read a golden file; false with `error` set when absent or bad. */
bool loadGolden(const std::string &path, Golden *out, std::string *error);

bool writeGolden(const std::string &path, const Golden &golden);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
