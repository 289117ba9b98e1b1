/**
 * @file
 * The RTGS programming model (Sec. 5.5, Listing 1): a function-level
 * interface through which GPU SMs hand frames to the plug-in and
 * synchronise via shared-memory flags.
 *
 * Flow per frame: SMs finish preprocessing+sorting and raise
 * Input_done; RTGS executes rendering and backpropagation and raises
 * gradient_ready; for non-keyframes the SMs prune and raise
 * pruning_done, after which RTGS writes back the optimised camera
 * pose; keyframes skip pruning and pose write-back and instead apply
 * the gradients to the Gaussian parameters (mapping).
 *
 * This implementation models the handshake as an explicit state
 * machine with a recorded flag trace, so the protocol itself is unit
 * testable without hardware.
 */

#ifndef RTGS_CORE_RTGS_API_HH
#define RTGS_CORE_RTGS_API_HH

#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace rtgs::core
{

/** RTGS execution status, as returned by RTGS_check_status. */
enum class RtgsStatus { Idle, Executing, WaitPruning };

/** One observable event in the SM <-> plug-in handshake. */
enum class RtgsEvent
{
    InputDone,      //!< SMs finished preprocessing + sorting
    ExecuteStart,   //!< plug-in began rendering / BP
    GradientReady,  //!< plug-in published Gaussian gradients
    PruningStart,   //!< SMs began pruning (non-keyframes)
    PruningDone,    //!< SMs finished pruning
    PoseWritten,    //!< plug-in wrote the optimised pose (non-keyframe)
    ParamsUpdated,  //!< plug-in applied mapping updates (keyframe)
    FrameComplete,
};

/** Human-readable event name. */
const char *rtgsEventName(RtgsEvent event);

/**
 * The plug-in runtime. The heavy lifting (rendering, backpropagation,
 * pruning) is delegated to caller-provided functions; the runtime owns
 * only the Listing-1 control flow and flag protocol.
 */
class RtgsRuntime
{
  public:
    /** Performs rendering + backpropagation for a frame. */
    using ExecuteFn = std::function<void(int frame_id, bool is_keyframe)>;
    /** SM-side pruning step for non-keyframes. */
    using PruneFn = std::function<void(int frame_id)>;
    /** Pose write-back for non-keyframes. */
    using PoseWriteFn = std::function<void(int frame_id)>;
    /** Mapping parameter update for keyframes. */
    using MapUpdateFn = std::function<void(int frame_id)>;

    RtgsRuntime(ExecuteFn execute, PruneFn prune, PoseWriteFn pose_write,
                MapUpdateFn map_update);

    /**
     * RTGS_execute (Listing 1): run the full per-frame protocol.
     * Returns the ordered flag trace of this frame.
     */
    const std::vector<RtgsEvent> &rtgsExecute(int frame_id,
                                              bool is_keyframe);

    /**
     * RTGS_check_status (Listing 1). With blocking=true the call only
     * returns once the runtime is Idle (trivially immediate in this
     * synchronous model, but the semantics are preserved).
     */
    RtgsStatus rtgsCheckStatus(int frame_id, bool blocking = false) const;

    /** Frames executed so far. */
    u32 framesExecuted() const { return framesExecuted_; }

  private:
    void emit(RtgsEvent event);

    ExecuteFn execute_;
    PruneFn prune_;
    PoseWriteFn poseWrite_;
    MapUpdateFn mapUpdate_;
    std::vector<RtgsEvent> trace_;
    RtgsStatus status_ = RtgsStatus::Idle;
    u32 framesExecuted_ = 0;
};

} // namespace rtgs::core

#endif // RTGS_CORE_RTGS_API_HH
