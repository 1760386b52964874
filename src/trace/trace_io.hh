/**
 * @file
 * Binary trace serialization.
 *
 * The format is a small fixed-width little-endian record stream with
 * a magic/version header, so traces can be generated once and
 * replayed by the bench binaries, mirroring the paper's
 * trace-once/simulate-many Dixie workflow.
 */

#ifndef OOVA_TRACE_TRACE_IO_HH
#define OOVA_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/trace.hh"

namespace oova
{

/** Serialize a trace to a stream. Returns false on I/O error. */
bool saveTrace(const Trace &trace, std::ostream &os);

/** Serialize a trace to a file. Returns false on I/O error. */
bool saveTraceFile(const Trace &trace, const std::string &path);

/**
 * Deserialize a trace from a stream.
 * @return true on success; on failure @p out is left empty.
 */
bool loadTrace(Trace &out, std::istream &is);

/** Deserialize a trace from a file. */
bool loadTraceFile(Trace &out, const std::string &path);

/**
 * XXH64 (the 64-bit xxHash algorithm, seed 0) of the trace's
 * serialized byte stream — the exact bytes saveTrace() writes,
 * format magic/version and trace name included, produced by the same
 * record encoder. The hash reads those bytes as little-endian 64-bit
 * words, so it is a function of the serialized format alone and the
 * same on any host: two traces hash equal iff their serialized forms
 * are identical (up to 64-bit collisions), and a trace-format
 * version bump changes every hash. This is the trace half of the
 * result-store key (ResultStore::makeKey() tags it `tracew=`);
 * entries stored under the earlier byte-serial FNV-1a hash (tagged
 * `trace=`) are never looked up again, so an existing store misses
 * once per entry and is refilled.
 */
uint64_t traceContentHash(const Trace &trace);

} // namespace oova

#endif // OOVA_TRACE_TRACE_IO_HH
