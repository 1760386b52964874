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
 * 64-bit FNV-1a hash of the trace's serialized byte stream — the
 * exact bytes saveTrace() would write, including the format
 * magic/version and the trace name. Two traces hash equal iff their
 * serialized forms are identical, and a trace-format version bump
 * changes every hash; this is the trace half of the result-store
 * key.
 */
uint64_t traceContentHash(const Trace &trace);

} // namespace oova

#endif // OOVA_TRACE_TRACE_IO_HH
