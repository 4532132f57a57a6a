% golden learned theory — regenerate with: go test -run TestGoldenTheories -update
%% dataset=hiv scale=0.1 seed=1 method=aleph workers=1 pos=12 neg=60
antiHIV(V0) :- atm(V1,V0,n), bnd(V7,V1,V8,double), atm(V8,V0,o).
