// Centralized-stable-storage baselines (paper Sec. VII).
//
// Classic coordinated checkpointing writes the *whole application footprint*
// to remote stable storage every period. Daly's first-order optimal period,
// which refines Young's sqrt(2 M C) + C, is
//
//   T_daly  = sqrt(2 (M + D + R_c) C) + C
//
// with C the (global) checkpoint time. The paper contrasts these with buddy
// checkpointing, whose delta is a *single-node* local checkpoint, hence the
// much larger optimal period and smaller waste. We expose the same waste
// decomposition so all protocols can be compared on one axis; stable storage
// makes the fatal-failure probability 1 (never at risk) by construction.
#pragma once

#include <cstdint>

namespace dckpt::model {

struct CentralizedParams {
  double checkpoint = 60.0;  ///< C: time to write a global checkpoint [s]
  double recovery = 60.0;    ///< R_c: time to reload a global checkpoint [s]
  double downtime = 0.0;     ///< D
  double mtbf = 3600.0;      ///< platform MTBF M

  void validate() const;
};

/// Daly's refined first-order optimal period.
double daly_period(const CentralizedParams& params);

/// Expected time lost per failure: D + R_c + P/2 (blocking checkpoint, no
/// overlap; same renewal argument as the paper's Eq. 6 with a single part).
double centralized_failure_cost(const CentralizedParams& params,
                                double period);

/// Product-form waste for blocking centralized checkpointing with period P:
/// 1 - (1 - (D + R_c + P/2)/M)(1 - C/P), clamped to [0, 1].
double centralized_waste(const CentralizedParams& params, double period);

}  // namespace dckpt::model
