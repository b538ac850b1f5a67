// Scheduler bundles by display name.
//
// The schedulers are the closed table of harness::SystemKind
// (harness/experiment.h), which also defines this function; it stays here
// because perfbench/ resolves its bundles through it.
#pragma once

#include <string>

#include "platform/policy.h"

namespace fluidfaas::platform {

/// A fresh bundle of the scheduler whose harness::Name is `name`; throws
/// FfsError for unknown names.
PolicyBundle MakeSchedulerBundle(const std::string& name);

}  // namespace fluidfaas::platform
