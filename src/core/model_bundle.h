// Deployable model bundle: the standardizer statistics and the trained
// encoder in one file, so serving code cannot accidentally pair a model
// with the wrong preprocessing.
//
// Format v2: one header line recording the architecture, then matrices in
// tensor/serialize text format —
//   rll-bundle v2 dims=16,64,32 hidden=tanh output=tanh layer_norm=0 embed_dim=32
//   mean (1×dim), stddev (1×dim), encoder parameters in Parameters() order
// The header makes the format self-describing: a bundle trained with a
// non-default activation (or with LayerNorm) round-trips exactly instead
// of silently loading as tanh. A file without the header is rejected.

#ifndef RLL_CORE_MODEL_BUNDLE_H_
#define RLL_CORE_MODEL_BUNDLE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/rll_model.h"
#include "data/standardize.h"

namespace rll::core {

class ModelBundle {
 public:
  /// Packages a fitted standardizer and a trained model. Both are copied.
  static Result<ModelBundle> Create(const data::Standardizer& standardizer,
                                    const RllModel& model, Rng* rng);

  /// Assembles a bundle from deserialized pieces: standardizer moments
  /// (1×dim each), the declared architecture, and parameter values in
  /// Parameters() order. Shape-checks every matrix against the
  /// architecture. Loaders use this; most callers want Create or Load.
  static Result<ModelBundle> FromParts(Matrix mean, Matrix stddev,
                                       const RllModelConfig& config,
                                       std::vector<Matrix> params);

  /// Writes the bundle in the v2 headered format.
  Status Save(const std::string& path) const;

  /// Reads a v2 bundle, reconstructing the encoder exactly from its
  /// header. A file that does not start with the header is
  /// InvalidArgument.
  static Result<ModelBundle> Load(const std::string& path);

  /// Standardizes raw features with the stored statistics and embeds them.
  Result<Matrix> Embed(const Matrix& raw_features) const;

  size_t input_dim() const { return model_->input_dim(); }
  size_t embedding_dim() const { return model_->embedding_dim(); }
  const RllModel& model() const { return *model_; }
  const data::Standardizer& standardizer() const { return standardizer_; }

 private:
  ModelBundle() = default;

  data::Standardizer standardizer_;
  std::shared_ptr<RllModel> model_;
};

}  // namespace rll::core

#endif  // RLL_CORE_MODEL_BUNDLE_H_
