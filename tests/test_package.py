"""The package's export list."""

import ballsaddle


def test_every_exported_name_resolves():
    assert len(set(ballsaddle.__all__)) == len(ballsaddle.__all__)
    missing = [name for name in ballsaddle.__all__ if not hasattr(ballsaddle, name)]
    assert missing == []


def test_every_public_callable_is_exported():
    # submodules are attributes of the package too, but no callables
    public = {name for name, value in vars(ballsaddle).items()
              if not name.startswith("_") and callable(value)}
    assert public - set(ballsaddle.__all__) == set()
