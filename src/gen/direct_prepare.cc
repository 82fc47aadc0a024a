#include "gen/direct_prepare.hh"

namespace dirsim::gen
{

trace::PreparedTrace
generatePrepared(const WorkloadConfig &cfg,
                 const trace::PrepareOptions &opts)
{
    WorkloadSource source(cfg);
    return trace::PreparedTrace::build(source, cfg.name, opts);
}

trace::StoredTraceInfo
spillPrepared(const WorkloadConfig &cfg,
              const trace::PrepareOptions &opts, const std::string &path,
              const trace::StoreWriteOptions &store)
{
    WorkloadSource source(cfg);
    return trace::spillFromSource(source, cfg.name, opts, path, store);
}

} // namespace dirsim::gen
