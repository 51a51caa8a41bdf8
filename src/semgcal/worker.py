"""One subject of a multi-subject study, run in a process of its own.

    python -m semgcal.worker < request.pickle > outcome.pickle

stdin holds a pickled `(SubjectData, HarnessConfig, master_seed)`. stdout
receives a pickled `("ok", SubjectResult)` from `experiment.run_subject`, or
`("error", exception)` when it raised a `SemgCalError`; the exit status is 0
in both cases. Any other failure leaves a traceback on stderr and a non-zero
exit status. `experiment.run_experiment` starts this module with one BLAS
thread in its environment, and the TSD pass here starts no helper threads,
so one worker keeps to one CPU.
"""

from __future__ import annotations

import contextlib
import pickle
import sys

from . import features
from .errors import SemgCalError
from .experiment import run_subject


def main(stdin=None, stdout=None) -> int:
    stdin = stdin or sys.stdin.buffer
    stdout = stdout or sys.stdout.buffer
    features.max_threads = 1
    subject_data, cfg, master_seed = pickle.load(stdin)
    # Stray prints must not corrupt the pickle on stdout.
    with contextlib.redirect_stdout(sys.stderr):
        try:
            outcome = ("ok", run_subject(subject_data, cfg, master_seed))
        except SemgCalError as exc:
            outcome = ("error", exc)
    pickle.dump(outcome, stdout)
    stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
