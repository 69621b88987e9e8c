"""Session-wide checks of the test suite."""
import threading

import pytest

from fopsolve import linalg


@pytest.fixture(scope="session", autouse=True)
def no_orphaned_helpers():
    """Fail the session when a helper thread of the long-vector kernels
    serves an inbox outside `linalg._inboxes`: nothing can reach such a
    helper, so it idles for the rest of the process."""
    yield
    helpers = [t.name for t in threading.enumerate() if t.name.startswith("fopsolve-helper-")]
    assert len(helpers) == len(linalg._inboxes), (
        f"{len(helpers)} live helper threads {helpers}, but the pool holds {len(linalg._inboxes)} inboxes")
