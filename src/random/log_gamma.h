// Thread-safe log-gamma.
//
// lgamma stores the sign of Gamma(x) in the process-global `signgam`, so
// two threads evaluating it race; the aggregate engines evaluate it on every
// round from parallel_for workers. lgamma_r hands the sign back through an
// out-parameter instead and is otherwise the same libm routine, so its values
// are bit-identical to lgamma's.
#ifndef BITSPREAD_RANDOM_LOG_GAMMA_H_
#define BITSPREAD_RANDOM_LOG_GAMMA_H_

#include <math.h>

namespace bitspread {

// ln|Gamma(x)|, leaving `signgam` untouched.
inline double log_gamma(double x) noexcept {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace bitspread

#endif  // BITSPREAD_RANDOM_LOG_GAMMA_H_
