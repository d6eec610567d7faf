"""Progressive ER methods: the paper's baselines and contributions.

========  ===========  ====================================================
Acronym   Category     Description
========  ===========  ====================================================
PSN       baseline     schema-based Progressive Sorted Neighborhood [4,5]
SA-PSN    naive        schema-agnostic PSN (Section 4.1)
SA-PSAB   naive        progressive Suffix Arrays Blocking (Section 4.2)
LS-PSN    similarity   local weighted Neighbor List (Section 5.1.1)
GS-PSN    similarity   global weighted Neighbor List (Section 5.1.2)
PBS       equality     Progressive Block Scheduling (Section 5.2.1)
PPS       equality     Progressive Profile Scheduling (Section 5.2.2)
========  ===========  ====================================================
"""

from repro.progressive.base import (
    ProgressiveMethod,
    available_methods,
    register_method,
)
from repro.progressive.gs_psn import GSPSN
from repro.progressive.ls_psn import LSPSN
from repro.progressive.pbs import PBS
from repro.progressive.pps import PPS
from repro.progressive.psn import PSN
from repro.progressive.sa_psab import SAPSAB
from repro.progressive.sa_psn import SAPSN

__all__ = [
    "ProgressiveMethod",
    "available_methods",
    "register_method",
    "PSN",
    "SAPSN",
    "SAPSAB",
    "LSPSN",
    "GSPSN",
    "PBS",
    "PPS",
]
