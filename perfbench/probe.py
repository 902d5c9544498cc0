"""Set-up time of one fresh process: importing the library and making the
first call into every layer. Prints the seconds it took."""

import time

start = time.perf_counter()

import jobs  # noqa: E402  (imports prefixcircuits from src/)

jobs.run_job(jobs.Clock(False), jobs.TOUCH)
print(time.perf_counter() - start)
