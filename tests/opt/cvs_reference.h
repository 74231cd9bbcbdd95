// Reference CVS: the algorithm opt::runCvs ran before it timed trials with
// the converter-aware IncrementalSta. Every candidate that passes the
// slack prune is verified by building the level-converted netlist and
// timing it in full, which is quadratic in the gate count. Kept for the
// tests only, as the oracle the O(cone) version must match bit for bit.
#pragma once

#include "opt/cvs.h"

namespace nano::opt::testing {

CvsResult runCvsReference(const circuit::Netlist& netlist,
                          const circuit::Library& library,
                          const CvsOptions& options = {}, double freq = -1.0);

}  // namespace nano::opt::testing
