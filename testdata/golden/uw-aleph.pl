% golden learned theory — regenerate with: go test -run TestGoldenTheories -update
%% dataset=uw scale=0.1 seed=1 method=aleph workers=1 pos=12 neg=60
advisedBy(V0,V1) :- ta(V4,V0,V5), taughtBy(V4,V1,V5), inPhase(V0,post_generals).
advisedBy(V0,V1) :- ta(V4,V0,V5), taughtBy(V4,V1,V5), inPhase(V0,post_quals).
