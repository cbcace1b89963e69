from ellentropy.results import BoundCertificate, EntropyResult


def test_certificate_json_shape():
    cert = BoundCertificate(
        effective_dimension=4,
        block_sizes=(4,),
        inner_radii=(0.1,),
        tail_radius=0.05,
        omega_count=1,
        eta=0.5,
        kappa=1.2,
        notes=("density case FD1",),
    )
    data = cert.to_json()
    assert data["block_sizes"] == [4]
    assert data["eta"] == 0.5
    assert data["notes"] == ["density case FD1"]


def test_entropy_result_is_value_like():
    r = EntropyResult(4.0, "exact", 0.3)
    assert (r.bits, r.kind, r.epsilon) == (4.0, "exact", 0.3)
