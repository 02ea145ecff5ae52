// Shim for perfbench/probes.cc only, which still times one
// reconfiguration through these three calls; they forward to OlapSession.
// It goes when the benchmark harness is next revised. Use OlapSession.
#ifndef VECUBE_SELECT_DYNAMIC_H_
#define VECUBE_SELECT_DYNAMIC_H_
#include <memory>
#include <utility>
#include "api/session.h"
namespace vecube {
struct DynamicOptions {};
struct DynamicAssembler {
  static Result<std::unique_ptr<DynamicAssembler>> Make(
      const CubeShape& shape, const Tensor& cube, DynamicOptions) {
    std::unique_ptr<OlapSession> session;
    VECUBE_ASSIGN_OR_RETURN(session, OlapSession::FromCube(shape, cube));
    return std::make_unique<DynamicAssembler>(std::move(session));
  }
  Result<Tensor> Query(const ElementId& id) { return session->Element(id); }
  Status Reconfigure() { return session->Optimize(); }
  std::unique_ptr<OlapSession> session;
};
}  // namespace vecube
#endif  // VECUBE_SELECT_DYNAMIC_H_
