"""Flow drivers and reporting for the low-power optimization system."""

from repro.core.flow import (FlowResult, FlowStage, low_power_flow,
                             SequentialFlowResult, fsm_low_power_flow,
                             run_flow)
from repro.core.passes import (ADOPTED, FlowSpec, FlowTrace, Pass,
                               PassContext, PassSkipped, ROLLED_BACK,
                               SKIPPED,
                               TraceRecord, available_passes,
                               load_flow_spec, make_pass,
                               run_network_passes)
from repro.core.report import format_table

__all__ = ["FlowResult", "FlowStage", "low_power_flow",
           "SequentialFlowResult", "fsm_low_power_flow", "run_flow",
           "FlowSpec", "FlowTrace", "TraceRecord", "Pass",
           "PassContext", "PassSkipped", "ADOPTED", "SKIPPED", "ROLLED_BACK",
           "available_passes", "load_flow_spec", "make_pass",
           "run_network_passes", "format_table"]
