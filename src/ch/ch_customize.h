#ifndef ECOCHARGE_CH_CH_CUSTOMIZE_H_
#define ECOCHARGE_CH_CH_CUSTOMIZE_H_

// perfbench includes this header by name; the inert CH names live in
// ch/ch_index.h.
#include "ch/ch_index.h"

#endif  // ECOCHARGE_CH_CH_CUSTOMIZE_H_
