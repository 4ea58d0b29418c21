/**
 * @file
 * The cluster fabric behind the uniform `runtime::Backend` interface,
 * registered as `"cluster"` in the backend registry: `runJob` times one
 * batch's scatter -> compute -> gather through a `ClusterRouter` over the
 * job's label space, so every registry consumer (benches, the serving
 * layer's `ENMC_SERVE_BACKEND=cluster`) can select the whole fabric the
 * same way it selects a single rank model. Cluster shape comes from the
 * `ENMC_CLUSTER_*` environment (see `cluster/config.h`); the system
 * configuration handed to the factory becomes every node's local system.
 */

#ifndef ENMC_CLUSTER_BACKEND_H
#define ENMC_CLUSTER_BACKEND_H

#include <map>
#include <memory>
#include <mutex>

#include "cluster/router.h"
#include "runtime/backend.h"

namespace enmc::cluster {

class ClusterBackend : public runtime::Backend
{
  public:
    explicit ClusterBackend(const ClusterConfig &cfg);

    std::string name() const override { return "cluster"; }
    runtime::BackendCapabilities capabilities() const override;

    /** Panics: the fabric has no single-rank slice view. */
    arch::RankResult runSlice(const arch::RankTask &task) const override;

    runtime::TimingResult runJob(const runtime::JobSpec &spec) const override;

    const ClusterConfig &clusterConfig() const { return cluster_cfg_; }

    /** The (lazily built) router over `categories` label rows. */
    ClusterRouter &router(const runtime::JobSpec &spec) const;

  private:
    ClusterConfig cluster_cfg_;
    // One router per label-space size: runJob is const on Backend, but a
    // router carries routing and health state, so the cache is mutable.
    mutable std::mutex mutex_;
    mutable std::map<uint64_t, std::unique_ptr<ClusterRouter>> routers_;
};

/**
 * Ensure `"cluster"` is in the backend registry. Idempotent; called by
 * consumers (the serving dispatcher, benches) so the static library's
 * registration TU is never dropped by the linker.
 */
void registerClusterBackend();

} // namespace enmc::cluster

#endif // ENMC_CLUSTER_BACKEND_H
