// Checker canary: a mutex acquisition smuggled into the admission stripe
// scan, which every served request runs lock-free beside its cache hit.
// Reachable from the TryTakeSlot root through TakeOnStripe. NOT compiled
// — consumed by tools/vecube_check.py --canaries as a self-test.
//
// vecube-check-as: src/serve/admission.cc
// vecube-check-expect: hit-path-no-locks

#include "serve/admission.h"
#include "util/sync.h"

namespace vecube {

AdmissionController::Take AdmissionController::TakeOnStripe(uint32_t stripe) {
  MutexLock lock(mu_);  // BUG: lock on the admission fast path
  (void)stripe;
  return Take::kFull;
}

uint32_t AdmissionController::TryTakeSlot() {
  for (uint32_t stripe = 0; stripe < num_stripes_; ++stripe) {
    if (TakeOnStripe(stripe) == Take::kTaken) return stripe;  // reaches it
  }
  return num_stripes_;
}

}  // namespace vecube
