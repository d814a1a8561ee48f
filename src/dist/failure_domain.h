// Failure domains and failure-handling policies (paper sec. 3.4).
//
// "Users (developers) can define the failure domains in their programs, with
// the understanding that different domains could fail independently while
// code and data within a domain will fail as a whole." The domains a user
// declares live in the parsed spec (AppSpec::domains, DomainOf and
// CoFailingWith in src/aspects/spec_parser.h); each module's dist aspect
// names how its failures are handled (re-execute, restore from a
// user-defined checkpoint, or fail over to a replica).

#ifndef UDC_SRC_DIST_FAILURE_DOMAIN_H_
#define UDC_SRC_DIST_FAILURE_DOMAIN_H_

#include <string_view>

namespace udc {

enum class FailureHandling {
  kReexecute,          // restart the module from its inputs
  kCheckpointRestore,  // restore the latest user-defined checkpoint
  kFailover,           // promote a replica (data modules)
};

std::string_view FailureHandlingName(FailureHandling handling);
bool ParseFailureHandling(std::string_view name, FailureHandling* out);

}  // namespace udc

#endif  // UDC_SRC_DIST_FAILURE_DOMAIN_H_
