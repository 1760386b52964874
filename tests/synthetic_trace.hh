/**
 * @file
 * A small synthetic trace for harness tests: vector loads whose
 * content varies with a parameter, under a caller-chosen name, so
 * tests can build traces that differ only in name or only in
 * content.
 */

#ifndef OOVA_TESTS_SYNTHETIC_TRACE_HH
#define OOVA_TESTS_SYNTHETIC_TRACE_HH

#include <memory>
#include <string>

#include "isa/instruction.hh"
#include "trace/trace.hh"

namespace oova
{

/** @p n + 1 vector loads whose addresses and strides follow @p n. */
inline std::shared_ptr<const Trace>
syntheticTrace(const std::string &name, unsigned n)
{
    Trace t(name);
    for (unsigned i = 0; i <= n; ++i)
        t.push(makeVLoad(vReg(static_cast<uint8_t>(i % 8)), aReg(0),
                         0x1000 + static_cast<Addr>(i) * 0x40 * (n + 1),
                         8 * (n + 1), 64));
    return std::make_shared<const Trace>(std::move(t));
}

} // namespace oova

#endif // OOVA_TESTS_SYNTHETIC_TRACE_HH
