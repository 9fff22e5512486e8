#include "src/dist/distribution.h"

#include <algorithm>

namespace pip {

Status Distribution::MissingCapability(const char* what) const {
  return Status::Unimplemented("distribution '" + name() +
                               "' does not provide " + what);
}

Status Distribution::GenerateBatch(const std::vector<double>& params,
                                   const SampleContext& ctx,
                                   const uint64_t* sample_indices, size_t n,
                                   double* out) const {
  // Fallback: the scalar loop, which is bit-identical by definition.
  const size_t d = NumComponents(params);
  std::vector<double> joint;
  SampleContext sample = ctx;
  for (size_t k = 0; k < n; ++k) {
    sample.sample_index = sample_indices[k];
    PIP_RETURN_IF_ERROR(GenerateJoint(params, sample, &joint));
    if (joint.size() != d) {
      return Status::Internal("GenerateJoint produced " +
                              std::to_string(joint.size()) +
                              " components, expected " + std::to_string(d));
    }
    std::copy(joint.begin(), joint.end(), out + k * d);
  }
  return Status::OK();
}

StatusOr<double> Distribution::Pdf(const std::vector<double>& params,
                                   uint32_t component, double x) const {
  (void)params;
  (void)component;
  (void)x;
  return MissingCapability("a PDF");
}

StatusOr<double> Distribution::Cdf(const std::vector<double>& params,
                                   uint32_t component, double x) const {
  (void)params;
  (void)component;
  (void)x;
  return MissingCapability("a CDF");
}

StatusOr<double> Distribution::InverseCdf(const std::vector<double>& params,
                                          uint32_t component,
                                          double p) const {
  (void)params;
  (void)component;
  (void)p;
  return MissingCapability("an inverse CDF");
}

StatusOr<double> Distribution::Mean(const std::vector<double>& params,
                                    uint32_t component) const {
  (void)params;
  (void)component;
  return MissingCapability("closed-form moments");
}

StatusOr<double> Distribution::Variance(const std::vector<double>& params,
                                        uint32_t component) const {
  (void)params;
  (void)component;
  return MissingCapability("closed-form moments");
}

StatusOr<std::vector<double>> Distribution::DomainValues(
    const std::vector<double>& params) const {
  (void)params;
  return MissingCapability("finite domain enumeration");
}

StatusOr<size_t> Distribution::DomainSize(
    const std::vector<double>& params) const {
  PIP_ASSIGN_OR_RETURN(std::vector<double> values, DomainValues(params));
  return values.size();
}

}  // namespace pip
