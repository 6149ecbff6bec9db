#ifndef ECOCHARGE_CH_CONTRACTION_H_
#define ECOCHARGE_CH_CONTRACTION_H_

// perfbench includes this header by name; the inert CH names live in
// ch/ch_index.h.
#include "ch/ch_index.h"

#endif  // ECOCHARGE_CH_CONTRACTION_H_
