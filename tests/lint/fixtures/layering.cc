// Known-bad fixture: placed as a util/ file, the campaign include
// points *up* the DAG and must trip layering.
#include "campaign/campaign.hh"

int
upwardInclude()
{
    return 1;
}
