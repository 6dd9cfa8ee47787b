/**
 * @file
 * Predefined summaries for the Linux Dynamic Power Management (DPM)
 * refcount APIs (Section 5.1).
 *
 * The DPM per-device usage count is incremented by the pm_runtime_get
 * family and decremented by the pm_runtime_put family. The get family has
 * the uncommon specification the paper highlights in Section 6.3: the
 * count is incremented even when the call returns an error code, so a
 * caller that bails out on error without a balancing put leaks a count.
 */

#ifndef RID_KERNEL_DPM_SPECS_H
#define RID_KERNEL_DPM_SPECS_H

#include <string>
#include <vector>

namespace rid::kernel {

/** Spec text for the DPM APIs, parseable by summary::parseSpecText(). */
const std::string &dpmSpecText();

/** Names of the pm_runtime_get-family APIs (used by the Section 6.3
 *  call-site scanner). */
const std::vector<std::string> &dpmGetFamily();

/** Names of the pm_runtime_put-family APIs. */
const std::vector<std::string> &dpmPutFamily();

} // namespace rid::kernel

#endif // RID_KERNEL_DPM_SPECS_H
